// Command benchmark is the repo benchmark: it assembles the CDAS stack
// in-process exactly as cmd/cdas-server wires it — on a real-fsync LSM
// store — drives it only through the cdas/client SDK with inputs
// generated from -seed, verifies the outputs against its own reference
// computation, and reports end-to-end metrics (untraced) or per-layer
// metrics (traced). See README.md in this directory.
//
//	go run ./benchmark                                  every workload, untraced then traced
//	go run ./benchmark -workload paced_mix -trace 1     one traced run
//	go run ./benchmark -check-noise                     each workload twice, compared within the bounds
//
// The last line of standard output is one JSON object:
// {"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"
)

// tempDirs owns every directory the run creates, so that each exit path
// — success, failed check, error, signal — removes them.
type tempDirs struct {
	root string
	mu   sync.Mutex
	dirs map[string]struct{}
}

func newTempDirs(root string) (*tempDirs, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("creating the temp root: %w", err)
	}
	return &tempDirs{root: root, dirs: make(map[string]struct{})}, nil
}

func (t *tempDirs) make(label string) (string, error) {
	dir, err := os.MkdirTemp(t.root, "cdas-bench-"+label+"-")
	if err != nil {
		return "", fmt.Errorf("creating a temp directory: %w", err)
	}
	t.mu.Lock()
	t.dirs[dir] = struct{}{}
	t.mu.Unlock()
	return dir, nil
}

func (t *tempDirs) remove(dir string) {
	os.RemoveAll(dir)
	t.mu.Lock()
	delete(t.dirs, dir)
	t.mu.Unlock()
}

func (t *tempDirs) removeAll() {
	t.mu.Lock()
	defer t.mu.Unlock()
	for dir := range t.dirs {
		os.RemoveAll(dir)
		delete(t.dirs, dir)
	}
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		workloadName = flag.String("workload", "", "workload to run (default: all of them, untraced then traced): "+strings.Join(workloadNames(), ", "))
		seed         = flag.Uint64("seed", 1, "seed every input is generated from")
		seconds      = flag.Int("seconds", 12, "nominal length of the timed phase: job counts are rate × seconds")
		trace        = flag.Int("trace", -1, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics (default: both)")
		outDir       = flag.String("out", filepath.Join("benchmark", "out"), "directory the traced run writes its span file to")
		tmpRoot      = flag.String("tmp", filepath.Join(".bench_build", "tmp"), "directory the store directories are created under")
		checkNoise   = flag.Bool("check-noise", false, "run each selected workload twice untraced and fail if an end-to-end metric differs by more than its bound")
		allowTmpfs   = flag.Bool("allow-tmpfs", false, "run even when the store directory is memory-backed")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unexpected argument %q\n", flag.Arg(0))
		return 2
	}
	if *seconds < 1 || *trace < -1 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be >= 1 and -trace 0 or 1")
		return 2
	}
	selected := workloads
	if *workloadName != "" {
		w := findWorkload(*workloadName)
		if w == nil {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q (have %s)\n", *workloadName, strings.Join(workloadNames(), ", "))
			return 2
		}
		selected = []workload{*w}
	}
	tmp, err := newTempDirs(*tmpRoot)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	defer tmp.removeAll()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		// A cancelled run unwinds through its deferred clean-up; if it is
		// stuck, remove the directories anyway.
		time.Sleep(10 * time.Second)
		tmp.removeAll()
		os.Exit(130)
	}()

	opt := options{seed: *seed, seconds: *seconds, outDir: *outDir, allowTmpfs: *allowTmpfs}
	var traces []bool
	switch {
	case *checkNoise:
		traces = []bool{false, false}
	case *trace == 0:
		traces = []bool{false}
	case *trace == 1:
		traces = []bool{true}
	default:
		traces = []bool{false, true}
	}

	fmt.Printf("deployment: %s\n", pinnedDeployment)
	total := result{Correct: true, Metrics: make(map[string]metricValue)}
	single := len(selected) == 1 && len(traces) == 1
	for _, w := range selected {
		var reps []*report
		for _, traced := range traces {
			opt.traced = traced
			rep, err := w.run(ctx, opt, tmp)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
				if ctx.Err() != nil {
					return 130
				}
				return 1
			}
			rep.print(os.Stdout)
			reps = append(reps, rep)
			total.add(rep, single)
		}
		switch {
		case *checkNoise:
			if !compareRuns(os.Stdout, reps[0], reps[1]) {
				total.Correct = false
			}
		case len(reps) == 2:
			a, b := reps[0].e2e["jobs_per_s"], reps[1].e2e["jobs_per_s"]
			fmt.Printf("%s: traced jobs_per_s %.1f vs untraced %.1f: measured tracing overhead %.1f %%\n", w.name, b, a, 100*(a-b)/a)
		}
	}
	if ctx.Err() != nil {
		fmt.Fprintln(os.Stderr, "benchmark: interrupted")
		return 130
	}
	line, err := json.Marshal(total)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: encoding the result: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !total.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// add folds one run into the result. A single run reports its metrics
// under their plain names; several runs prefix them with the workload.
func (r *result) add(rep *report, single bool) {
	r.Attempted += rep.checks.attempted
	r.Failed += rep.checks.failed
	if rep.checks.failed > 0 {
		r.Correct = false
	}
	defs, values := endToEnd, rep.e2e
	if rep.traced {
		defs, values = perLayer, rep.layers
	}
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			r.Correct = false
			fmt.Fprintf(os.Stderr, "benchmark: %s did not measure %s\n", rep.workload, d.Name)
			continue
		}
		name := d.Name
		if !single {
			name = rep.workload + "/" + name
		}
		r.Metrics[name] = metricValue{Value: v, Unit: d.Unit}
	}
}

// print writes one run's report for people.
func (rep *report) print(w io.Writer) {
	mode := "untraced"
	if rep.traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "\n== %s (%s) seed=%d input_hash=%s\n", rep.workload, mode, rep.seed, rep.inputHash)
	fmt.Fprintf(w, "   %s\n   %s\n", rep.sizes, rep.host)
	for _, n := range rep.notes {
		fmt.Fprintf(w, "   %s\n", n)
	}
	for _, d := range endToEnd {
		if v, ok := rep.e2e[d.Name]; ok {
			fmt.Fprintf(w, "   %-36s %14.4f %s\n", d.Name, v, d.Unit)
		}
	}
	if rep.traced {
		for _, d := range perLayer {
			if v, ok := rep.layers[d.Name]; ok {
				fmt.Fprintf(w, "   %-36s %14.4f %s\n", d.Name, v, d.Unit)
			}
		}
		fmt.Fprintf(w, "   spans written to %s\n", rep.spanFile)
	}
	fmt.Fprintf(w, "   checks: %d attempted, %d failed\n", rep.checks.attempted, rep.checks.failed)
	for _, msg := range rep.checks.msgs {
		fmt.Fprintf(w, "   FAILED: %s\n", msg)
	}
}

// compareRuns reports whether two runs of the same code agree within
// every end-to-end metric's bound.
func compareRuns(w io.Writer, a, b *report) bool {
	ok := true
	for _, d := range endToEnd {
		x, y := a.e2e[d.Name], b.e2e[d.Name]
		diff := ratio(max(x, y)-min(x, y), min(x, y))
		verdict := "ok"
		if diff > d.Bound {
			verdict, ok = "DISAGREE", false
		}
		fmt.Fprintf(w, "   noise %-24s %12.4f vs %12.4f  %5.1f %% (bound %.0f %%) %s\n", d.Name, x, y, 100*diff, 100*d.Bound, verdict)
	}
	return ok
}
