// Accuracy-vs-cost matrix: engine-direct sweeps over (aggregation
// method × assignment overlap), scoring accepted answers against the
// synthetic stream's ground truth. Every cell runs against a fresh
// platform built from the same seed, so the worker population — and
// therefore the accuracy and spend differences between cells — is
// attributable to the aggregator and the overlap cap alone.
package loadgen

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"

	"cdas/internal/core/aggregate"
	"cdas/internal/crowd"
	"cdas/internal/engine"
	"cdas/internal/jobs"
	"cdas/internal/textgen"
	"cdas/internal/tsa"
)

// MatrixCell is one (aggregator, overlap) measurement.
type MatrixCell struct {
	// Aggregator is the answer-aggregation method the cell ran.
	Aggregator string `json:"aggregator"`
	// MaxWorkers caps the planned assignments per question — the
	// overlap axis of the sweep.
	MaxWorkers int `json:"max_workers"`
	Questions  int `json:"questions"`
	// Accuracy is the fraction of questions whose accepted answer
	// matches ground truth.
	Accuracy float64 `json:"accuracy"`
	// Votes is the assignments actually consumed across the run.
	Votes int `json:"votes"`
	// Cost is the crowd fees charged (reposts included).
	Cost            float64 `json:"cost"`
	CostPerQuestion float64 `json:"cost_per_question"`
	// MeanConfidence / MeanQuality are the run summary's means over the
	// accepted answers.
	MeanConfidence float64 `json:"mean_confidence"`
	MeanQuality    float64 `json:"mean_quality"`
}

// AccuracyMatrix is the accuracy-vs-cost sweep; the seed-1 default
// sweep is pinned by testdata/matrix.golden.json.
type AccuracyMatrix struct {
	Seed        uint64       `json:"seed"`
	Questions   int          `json:"questions"`
	Aggregators []string     `json:"aggregators"`
	Overlaps    []int        `json:"overlaps"`
	Cells       []MatrixCell `json:"cells"`
}

// Cell looks a measurement up by its coordinates.
func (m *AccuracyMatrix) Cell(aggregator string, maxWorkers int) (MatrixCell, bool) {
	for _, c := range m.Cells {
		if c.Aggregator == aggregator && c.MaxWorkers == maxWorkers {
			return c, true
		}
	}
	return MatrixCell{}, false
}

// MatrixConfig shapes a RunMatrix sweep. Zero fields take defaults.
type MatrixConfig struct {
	// Seed drives the worker population, the tweet stream and the
	// golden placement of every cell.
	Seed uint64
	// Questions per cell (default 24).
	Questions int
	// Aggregators to sweep (default: the whole registry).
	Aggregators []string
	// Overlaps are the MaxWorkers caps to sweep (default 3, 7, 11).
	Overlaps []int
	// RequiredAccuracy is each cell's C (default 0.99 — high enough
	// that the planned per-question assignment count exceeds every
	// default overlap cap, so the MaxWorkers axis actually binds).
	RequiredAccuracy float64
	// HITSize is the questions per HIT (default 12).
	HITSize int
}

func (c MatrixConfig) withDefaults() MatrixConfig {
	if c.Questions <= 0 {
		c.Questions = 24
	}
	if len(c.Aggregators) == 0 {
		c.Aggregators = aggregate.Names()
	}
	if len(c.Overlaps) == 0 {
		c.Overlaps = []int{3, 7, 11}
	}
	if c.RequiredAccuracy == 0 {
		c.RequiredAccuracy = 0.99
	}
	if c.HITSize == 0 {
		c.HITSize = 12
	}
	return c
}

// RunMatrix executes the sweep: one engine-direct TSA run per
// (aggregator, overlap) cell, all against identically seeded platforms.
// The result is deterministic for a fixed config on a fixed
// architecture.
func RunMatrix(cfg MatrixConfig) (*AccuracyMatrix, error) {
	cfg = cfg.withDefaults()
	for _, name := range cfg.Aggregators {
		if err := aggregate.Validate(name); err != nil {
			return nil, fmt.Errorf("loadgen: matrix: %w", err)
		}
	}

	start := time.Date(2011, 10, 1, 0, 0, 0, 0, time.UTC)
	window := 24 * time.Hour
	const movie = "MATRIX00"
	stream, err := textgen.Generate(textgen.Config{
		Seed:           cfg.Seed + 1,
		Movies:         []string{movie},
		TweetsPerMovie: cfg.Questions,
		Start:          start,
		Span:           window,
	})
	if err != nil {
		return nil, fmt.Errorf("loadgen: matrix: generating stream: %w", err)
	}
	golden, err := textgen.Generate(textgen.Config{
		Seed:           cfg.Seed + 2,
		Movies:         []string{"CALIB000"},
		TweetsPerMovie: 32,
		Start:          start,
		Span:           window,
	})
	if err != nil {
		return nil, fmt.Errorf("loadgen: matrix: generating golden pool: %w", err)
	}
	q := tsa.Query(movie, cfg.RequiredAccuracy, start, window)

	m := &AccuracyMatrix{
		Seed:        cfg.Seed,
		Questions:   cfg.Questions,
		Aggregators: append([]string(nil), cfg.Aggregators...),
		Overlaps:    append([]int(nil), cfg.Overlaps...),
	}
	for _, name := range cfg.Aggregators {
		for _, overlap := range cfg.Overlaps {
			cell, err := runMatrixCell(cfg, name, overlap, q, stream, golden)
			if err != nil {
				return nil, fmt.Errorf("loadgen: matrix cell %s/w%d: %w", name, overlap, err)
			}
			m.Cells = append(m.Cells, cell)
		}
	}
	return m, nil
}

// runMatrixCell runs one cell on a fresh, identically seeded platform.
func runMatrixCell(cfg MatrixConfig, aggregator string, maxWorkers int, q jobs.Query, stream, golden []textgen.Tweet) (MatrixCell, error) {
	platform, err := crowd.NewPlatform(crowd.DefaultConfig(cfg.Seed))
	if err != nil {
		return MatrixCell{}, err
	}
	eng, err := engine.New(engine.CrowdPlatform{Platform: platform}, nil, engine.Config{
		JobName:          fmt.Sprintf("matrix/%s/w%d", aggregator, maxWorkers),
		RequiredAccuracy: cfg.RequiredAccuracy,
		HITSize:          cfg.HITSize,
		MaxWorkers:       maxWorkers,
		Aggregator:       aggregator,
		Seed:             cfg.Seed,
	})
	if err != nil {
		return MatrixCell{}, err
	}
	res, err := tsa.Run(eng, q, stream, golden)
	if err != nil {
		return MatrixCell{}, err
	}
	cell := MatrixCell{
		Aggregator:     aggregator,
		MaxWorkers:     maxWorkers,
		Accuracy:       res.Accuracy,
		MeanConfidence: res.Summary.Confidence,
		MeanQuality:    res.Summary.Quality,
	}
	for _, br := range res.Batches {
		cell.Questions += len(br.Results)
		cell.Votes += br.UsedWorkers
		cell.Cost += br.Cost
	}
	if cell.Questions > 0 {
		cell.CostPerQuestion = cell.Cost / float64(cell.Questions)
	}
	return cell, nil
}

// TestRunMatrix: the sweep produces one cell per (aggregator, overlap)
// coordinate, the overlap axis binds (more allowed workers means more
// votes and spend), and the whole matrix is deterministic for a seed.
func TestRunMatrix(t *testing.T) {
	cfg := MatrixConfig{
		Seed:        11,
		Questions:   8,
		Aggregators: []string{"cdas", "majority"},
		Overlaps:    []int{3, 7},
		HITSize:     8,
	}
	m, err := RunMatrix(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Cells) != 4 {
		t.Fatalf("got %d cells, want 4: %+v", len(m.Cells), m.Cells)
	}
	for _, agg := range cfg.Aggregators {
		for _, w := range cfg.Overlaps {
			c, ok := m.Cell(agg, w)
			if !ok {
				t.Fatalf("no cell for %s/w%d", agg, w)
			}
			if c.Questions != cfg.Questions {
				t.Errorf("%s/w%d: %d questions, want %d", agg, w, c.Questions, cfg.Questions)
			}
			if c.Votes <= 0 || c.Cost <= 0 || c.CostPerQuestion <= 0 {
				t.Errorf("%s/w%d: empty measurement %+v", agg, w, c)
			}
			if c.Accuracy < 0 || c.Accuracy > 1 {
				t.Errorf("%s/w%d: accuracy %v out of range", agg, w, c.Accuracy)
			}
		}
		// The overlap axis must bind: a higher cap buys more votes.
		lo, _ := m.Cell(agg, 3)
		hi, _ := m.Cell(agg, 7)
		if hi.Votes <= lo.Votes || hi.Cost <= lo.Cost {
			t.Errorf("%s: overlap cap not binding: w3=%+v w7=%+v", agg, lo, hi)
		}
	}
	if _, ok := m.Cell("cdas", 99); ok {
		t.Error("Cell returned a measurement for an unswept overlap")
	}

	again, err := RunMatrix(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, again) {
		t.Errorf("matrix not deterministic:\n first: %+v\nsecond: %+v", m, again)
	}
}

func TestRunMatrixUnknownAggregator(t *testing.T) {
	_, err := RunMatrix(MatrixConfig{Seed: 1, Aggregators: []string{"consensus-9000"}})
	if err == nil {
		t.Fatal("RunMatrix accepted an unknown aggregator")
	}
}

var update = flag.Bool("update", false, "rewrite testdata/matrix.golden.json from the current code")

// TestMatrixGolden pins the default sweep — every aggregator at
// overlaps 3, 7 and 11 — cell for cell at full float precision, so any
// change to what an aggregator accepts or what the crowd is paid
// shows. Regenerate only on an intended behaviour change:
//
//	go test ./internal/loadgen/ -run TestMatrixGolden -update
func TestMatrixGolden(t *testing.T) {
	if runtime.GOARCH != pinnedArch && !*update {
		t.Skipf("matrix pinned on %s; TestRunMatrix asserts its determinism on %s", pinnedArch, runtime.GOARCH)
	}
	m, err := RunMatrix(MatrixConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", "matrix.golden.json")
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("accuracy-vs-cost matrix differs from %s:\n got: %s\nwant: %s", path, got, want)
	}
}
