package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"lognic/internal/experiments"
	"lognic/internal/obs"
	"lognic/internal/simtest"
)

// figureIDs has one generator per distinct replication family; fig12,
// fig14, fig17, fig18 and fig19 re-render runs of these.
var figureIDs = []string{"fig5", "fig6", "fig7", "fig9", "fig10", "fig11", "fig13", "fig15", "fig16"}

const (
	figScale      = 0.05 // the scale the committed golden digests were recorded at
	figSmokeScale = 0.005
	goldenPath    = "internal/experiments/testdata/golden_digests.json"
)

// figureSet is the figures workload's input: the generators and the digest
// each regenerated figure must have. For seeds 1–3 the expected digests
// are the committed goldens; for any other seed the first pass records
// them and every later pass must reproduce them.
type figureSet struct {
	gens []experiments.Generator
	want map[string]string
	opts experiments.Options
}

func loadFigures(e *env) (*figureSet, error) {
	fs := &figureSet{want: map[string]string{}, opts: experiments.Options{
		Scale: figScale, Seed: e.o.seed, SeedSet: true, Workers: runtime.NumCPU(),
	}}
	if e.o.smoke {
		fs.opts.Scale = figSmokeScale
	}
	for _, id := range figureIDs {
		g, err := experiments.ByID(id)
		if err != nil {
			return nil, err
		}
		fs.gens = append(fs.gens, g)
	}
	if e.o.smoke || e.o.seed < 1 || e.o.seed > 3 {
		return fs, nil
	}
	data, err := os.ReadFile(filepath.Join(e.o.root, goldenPath))
	if err != nil {
		return nil, fmt.Errorf("reading golden digests: %w", err)
	}
	var golden map[string]string
	if err := json.Unmarshal(data, &golden); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", goldenPath, err)
	}
	for _, id := range figureIDs {
		key := simtest.Key(id, "seed", e.o.seed)
		if golden[key] == "" {
			return nil, fmt.Errorf("%s has no digest %q", goldenPath, key)
		}
		fs.want[id] = golden[key]
	}
	return fs, nil
}

// check compares a regenerated figure with its expected digest, recording
// the digest first when there is none yet.
func (fs *figureSet) check(t *tally, id string, fig experiments.Figure) {
	got := simtest.FigureDigest(fig)
	want, ok := fs.want[id]
	if !ok {
		fs.want[id] = got
		t.ok(1)
		return
	}
	t.check(id+" digest", got, want)
}

// pass regenerates every figure once, in order, checking each, and returns
// the per-figure wall seconds and the figures.
func (fs *figureSet) pass(e *env, opts experiments.Options, sp *spans) (map[string]float64, map[string]experiments.Figure) {
	walls := make(map[string]float64, len(fs.gens))
	figs := make(map[string]experiments.Figure, len(fs.gens))
	root := sp.root("experiments", "figures pass")
	defer root.end()
	for _, g := range fs.gens {
		s := root.child("experiments", g.ID)
		t0 := time.Now()
		fig, err := g.Run(opts)
		walls[g.ID] = time.Since(t0).Seconds()
		s.end()
		if err != nil {
			e.tally.fail("%s: %v", g.ID, err)
			continue
		}
		fs.check(&e.tally, g.ID, fig)
		figs[g.ID] = fig
	}
	return walls, figs
}

// instrumented runs one pass with a metrics registry attached and returns
// the per-figure walls, the figures, the sweep-point count and the summed
// per-point busy seconds (lognic_sweep_point_seconds).
func (fs *figureSet) instrumented(e *env) (map[string]float64, map[string]experiments.Figure, float64, float64) {
	opts := fs.opts
	reg := obs.NewRegistry()
	opts.Metrics = reg
	walls, figs := fs.pass(e, opts, e.spans)
	points, busy := sweepTotals(reg)
	return walls, figs, points, busy
}

// sweepTotals reads the sweep-point count and the summed per-point wall
// seconds from lognic_sweep_point_seconds.
func sweepTotals(reg *obs.Registry) (points, busy float64) {
	for _, s := range reg.Gather() {
		if s.Name == "lognic_sweep_point_seconds" {
			points += float64(s.Count)
			busy += s.Sum
		}
	}
	return points, busy
}

func runFigures(e *env) (*measured, error) {
	m := &measured{}
	fs, err := loadFigures(e)
	if err != nil {
		return nil, err
	}
	// Set-up is what every replication pays before its events flow: graph
	// and model construction, sim.New, service timers and queues. A pass at
	// a tiny scale, where the short runs leave little else, times it.
	tiny := fs.opts
	tiny.Scale = figSmokeScale / 10
	st := setupTimer[struct{}]{n: 5, build: func() (struct{}, error) { return struct{}{}, fs.runAll(tiny) }, teardown: func(struct{}) {}}
	if _, err := st.before(m); err != nil {
		return nil, err
	}
	// A figure's sweep-point count depends on its structure, not its scale,
	// so one more tiny pass counts them through a metrics registry. The
	// timed passes run without one; the first of them records the expected
	// digests when the seed has no goldens.
	reg := obs.NewRegistry()
	counted := tiny
	counted.Metrics = reg
	if err := fs.runAll(counted); err != nil {
		return nil, err
	}
	points, _ := sweepTotals(reg)
	if points == 0 {
		return nil, fmt.Errorf("figures pass reported no sweep points")
	}
	perFig := map[string][]float64{}
	err = e.timed(m, 3, func(sp *spans) (pass, error) {
		t0 := time.Now()
		walls, _ := fs.pass(e, fs.opts, sp)
		secs := time.Since(t0).Seconds()
		for id, w := range walls {
			perFig[id] = append(perFig[id], w)
		}
		return pass{ops: points, secs: secs}, nil
	})
	if err == nil && !e.o.trace {
		// A pass lasts seconds, so a run holds only a few. Assembling the
		// typical pass from each figure's median time keeps a noisy moment
		// during one figure from moving the whole pass; the response
		// percentiles are over those median figure times.
		var secs float64
		var ms []float64
		for _, ws := range perFig {
			secs += median(ws)
			ms = append(ms, median(ws)*1e3)
		}
		m.rates = []float64{points / secs}
		m.p50s = []float64{quantile(ms, 0.5)}
		m.p99s = []float64{quantile(ms, 0.99)}
	}
	if err != nil {
		return nil, err
	}
	return m, st.after(e, m)
}

// runAll regenerates every figure once at opts, unchecked.
func (fs *figureSet) runAll(opts experiments.Options) error {
	for _, g := range fs.gens {
		if _, err := g.Run(opts); err != nil {
			return fmt.Errorf("%s at scale %g: %w", g.ID, opts.Scale, err)
		}
	}
	return nil
}

// figuresLedger regenerates the figures once with a metrics registry and
// reports each figure's wall time, the sweep-point count, how busy the
// sweep workers were, and the model's error against the simulator.
func figuresLedger(e *env, out map[string]float64) error {
	fs, err := loadFigures(e)
	if err != nil {
		return err
	}
	t0 := time.Now()
	walls, figs, points, busy := fs.instrumented(e)
	wall := time.Since(t0).Seconds()
	for id, w := range walls {
		out["experiments."+id+"_s"] = w
	}
	out["experiments.points"] = points
	out["experiments.busy_ratio"] = busy / (wall * float64(fs.opts.Workers))
	out["experiments.model_err_pct"] = modelErrPct(figs)
	return nil
}

// modelErrPct is the mean |LogNIC − Measured| / Measured, in percent, over
// the paired "-LogNIC"/"-Measured" series of fig6, fig7 and fig9 (points
// paired by position; zero measurements skipped).
func modelErrPct(figs map[string]experiments.Figure) float64 {
	var sum float64
	var n int
	for _, id := range []string{"fig6", "fig7", "fig9"} {
		series := map[string]experiments.Series{}
		var names []string
		for _, s := range figs[id].Series {
			series[s.Name] = s
			names = append(names, s.Name)
		}
		sort.Strings(names)
		for _, name := range names {
			base, ok := strings.CutSuffix(name, "-Measured")
			if !ok {
				continue
			}
			meas, model := series[name].Points, series[base+"-LogNIC"].Points
			for i := 0; i < len(meas) && i < len(model); i++ {
				if y := meas[i].Y; y != 0 {
					sum += math.Abs(model[i].Y-y) / y
					n++
				}
			}
		}
	}
	if n == 0 {
		return 0 // the missing figures were already counted as failures
	}
	return 100 * sum / float64(n)
}
