package engine

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"cdas/internal/core/aggregate"
	"cdas/internal/core/online"
	"cdas/internal/crowd"
	"cdas/internal/privacy"
)

var update = flag.Bool("update", false, "rewrite testdata/batches.golden from the current engine")

// TestBatchesGolden pins every BatchResult field the engine produces over
// every aggregator, three termination strategies, reposting on and off
// and a privacy policy that bars one worker, on two seeds. Any change to
// the vote loop must reproduce testdata/batches.golden byte for byte;
// regenerate it with `go test -run TestBatchesGolden -update` only when a
// behaviour change is intended.
func TestBatchesGolden(t *testing.T) {
	var b strings.Builder
	for _, seed := range []uint64{1, 2} {
		for _, agg := range aggregate.Names() {
			for _, strategy := range []online.Strategy{online.Never, online.MinMax, online.ExpMax} {
				for _, repost := range []bool{false, true} {
					blocked, batches := goldenRun(t, seed, agg, strategy, repost)
					fmt.Fprintf(&b, "== seed=%d aggregator=%s strategy=%s repost=%t blocked=%s\n", seed, agg, strategy, repost, blocked)
					for _, br := range batches {
						writeBatch(&b, br)
					}
				}
			}
		}
	}
	path := filepath.Join("testdata", "batches.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got := b.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("golden mismatch at line %d:\n got %s\nwant %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("golden mismatch: got %d lines, want %d", len(gl), len(wl))
	}
}

// goldenRun processes one configuration's question set: no-show workers
// leave HITs short (so reposts fire), two domain sizes share each HIT
// (so Dawid–Skene runs one EM per size), and seed 2 additionally runs
// the pipeline with quality feedback on. It also returns the barred
// worker's ID.
func goldenRun(t *testing.T, seed uint64, agg string, strategy online.Strategy, repost bool) (string, []BatchResult) {
	t.Helper()
	pcfg := crowd.DefaultConfig(seed)
	pcfg.Workers = 80
	pcfg.NoShowFraction = 0.25
	sim, err := crowd.NewPlatform(pcfg)
	if err != nil {
		t.Fatal(err)
	}
	pm := privacy.NewManager()
	blocked := sim.Workers()[7].ID
	pm.BlockWorker(blocked)
	e, err := New(CrowdPlatform{sim}, nil, Config{
		JobName:          "golden",
		RequiredAccuracy: 0.9,
		HITSize:          15,
		Strategy:         strategy,
		Privacy:          pm,
		RepostShortfall:  repost,
		Aggregator:       agg,
		QualityFeedback:  seed == 2,
		MaxInflightHITs:  int(seed),
		Seed:             seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	three := []string{"pos", "neu", "neg"}
	two := []string{"yes", "no"}
	var real []crowd.Question
	for i := 0; i < 30; i++ {
		dom := three
		if i%4 == 3 {
			dom = two
		}
		real = append(real, crowd.Question{
			ID:     fmt.Sprintf("q%02d", (i*7)%30),
			Text:   fmt.Sprintf("item %d about @someone", i),
			Domain: dom,
			Truth:  dom[i%len(dom)],
		})
	}
	golden := make([]crowd.Question, 8)
	for i := range golden {
		golden[i] = crowd.Question{ID: fmt.Sprintf("g%d", i), Text: "golden", Domain: three, Truth: three[i%3]}
	}
	out, err := e.ProcessAll(real, golden)
	if err != nil {
		t.Fatal(err)
	}
	return blocked, out
}

func writeBatch(b *strings.Builder, br BatchResult) {
	f := func(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
	fmt.Fprintf(b, "batch %s planned=%d used=%d cost=%s early=%t golden=%d reposts=%d\n",
		br.HITID, br.PlannedWorkers, br.UsedWorkers, f(br.Cost), br.TerminatedEarly, br.GoldenCount, br.Reposts)
	for _, qr := range br.Results {
		fmt.Fprintf(b, "  %s %q answer=%q conf=%s votes=%d quality=%s ranked=[",
			qr.Question.ID, qr.Question.Text, qr.Answer, f(qr.Confidence), qr.Votes, f(qr.Quality))
		for i, sc := range qr.Ranked {
			if i > 0 {
				b.WriteString(" ")
			}
			fmt.Fprintf(b, "%s:%s", sc.Answer, f(sc.Confidence))
		}
		b.WriteString("]\n")
	}
	workers := make([]string, 0, len(br.WorkerQuality))
	for w := range br.WorkerQuality {
		workers = append(workers, w)
	}
	sort.Strings(workers)
	b.WriteString("  quality")
	for _, w := range workers {
		fmt.Fprintf(b, " %s:%s", w, f(br.WorkerQuality[w]))
	}
	b.WriteString("\n")
}
