package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// env is one workload run's shared state: options, the failure tally and
// the span recorder (nil spans while tracing is off).
type env struct {
	o     options
	tally tally
	spans *spans
}

func newEnv(o options) *env {
	e := &env{o: o}
	if o.trace {
		e.spans = newSpans()
	}
	return e
}

// budget is the measured wall time: half of --seconds per half in a traced
// run (untraced, then traced), all of it otherwise.
func (e *env) budget() time.Duration {
	d := time.Duration(e.o.seconds * float64(time.Second))
	if e.o.trace {
		d /= 2
	}
	return d
}

// tally counts attempted and failed operations. Every failed output check
// lands here with a note; none passes silently.
type tally struct {
	attempted, failed atomic.Int64
	mu                sync.Mutex
	failures          []string
}

func (t *tally) ok(n int64) { t.attempted.Add(n) }

func (t *tally) fail(format string, args ...any) { t.failN(1, format, args...) }

// failN counts n failed operations under one note.
func (t *tally) failN(n int64, format string, args ...any) {
	t.attempted.Add(n)
	t.failed.Add(n)
	t.mu.Lock()
	if len(t.failures) < 20 {
		t.failures = append(t.failures, fmt.Sprintf(format, args...))
	}
	t.mu.Unlock()
}

// check counts one output check: a pass when got equals want.
func (t *tally) check(what, got, want string) {
	if got != want {
		t.fail("%s: got %.16s…, want %.16s…", what, got, want)
		return
	}
	t.ok(1)
}

func (t *tally) notes() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]string(nil), t.failures...)
}

// measured is what a workload's end-to-end passes produce. An op is the
// workload's unit of work: a simulated event (sim-mesh64), a sweep point
// (figures) or a served request (serve workloads). A response is what a
// caller waits for: a 1024-event engine window, a figure, a request.
//
// Every rate and latency percentile is taken per pass and the median
// across passes is reported, so one pass slowed by a noisy neighbour does
// not move a metric.
type measured struct {
	setup    []float64 // seconds per repeated set-up
	ops      float64   // ops completed in the metered passes
	rates    []float64 // ops/s per pass
	p50s     []float64 // per-pass median response latency, ms
	p99s     []float64 // per-pass 99th-percentile response latency, ms
	heap     float64   // median live heap over GC cycles, bytes
	lateMs   []float64 // open-loop send lateness samples
	mallocs  uint64
	bytes    uint64
	paced    bool    // an open loop: its schedule, not the program, sets ops/s
	overhead float64 // traced runs: % slower with spans on than off
}

// pass is one timed pass's outcome.
type pass struct {
	ops, secs float64
	p50, p99  float64 // response latency, ms
}

func (m *measured) endToEnd() map[string]float64 {
	return map[string]float64{
		"setup_s":       median(m.setup),
		"ops_per_s":     median(m.rates),
		"p50_ms":        median(m.p50s),
		"p99_ms":        median(m.p99s),
		"allocs_per_op": float64(m.mallocs) / m.ops,
		"bytes_per_op":  float64(m.bytes) / m.ops,
		"live_heap_mb":  m.heap / (1 << 20),
	}
}

// meter brackets the timed passes: allocation counters from MemStats, and
// the live heap each GC cycle marked. The heap is read from a finalizer
// that re-arms itself every cycle, so the meter costs one read per GC and
// no polling goroutine competes with the workload for a processor.
type meter struct {
	before runtime.MemStats
	mu     sync.Mutex
	done   bool
	live   []float64 // bytes, one sample per GC cycle
}

// sentinel carries a pointer so it is never a tiny-allocator object, whose
// finalizer may not run.
type sentinel struct{ _ *int }

func startMeter() *meter {
	m := &meter{}
	runtime.GC()
	runtime.ReadMemStats(&m.before)
	m.arm()
	return m
}

func (mt *meter) arm() {
	runtime.SetFinalizer(&sentinel{}, func(*sentinel) {
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		metrics.Read(s)
		mt.mu.Lock()
		defer mt.mu.Unlock()
		if !mt.done {
			mt.live = append(mt.live, float64(s[0].Value.Uint64()))
			mt.arm()
		}
	})
}

// finish stops the sampling and adds the allocation deltas and the heap
// figure to m.
func (mt *meter) finish(m *measured) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	mt.mu.Lock()
	mt.done = true
	live := mt.live
	mt.mu.Unlock()
	m.mallocs += after.Mallocs - mt.before.Mallocs
	m.bytes += after.TotalAlloc - mt.before.TotalAlloc
	// The median over GC cycles, not the largest or a high percentile: the
	// cycles that mark a transient spike depend on what happened to be in
	// flight at that moment, and move from run to run.
	m.heap = median(live)
}

// timeSetup runs build n times, keeping the last instance and tearing the
// others down, and returns the per-build seconds. Set-up is repeated so the
// reported figure is a median, not one cold sample, and each build starts
// from a collected heap, so no build pays for its predecessor's garbage.
func timeSetup[T any](n int, build func() (T, error), teardown func(T)) (T, []float64, error) {
	var last T
	secs := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		runtime.GC()
		t0 := time.Now()
		v, err := build()
		if err != nil {
			return last, nil, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		if i < n-1 {
			teardown(v)
		}
		last = v
	}
	return last, secs, nil
}

// setupTimer times a workload's set-up: n builds before the timed passes,
// the last of which the passes use, and n more after them, each torn down,
// so setup_s samples the host at both ends of a run rather than in one
// short window.
type setupTimer[T any] struct {
	n        int
	build    func() (T, error)
	teardown func(T)
}

func (st setupTimer[T]) before(m *measured) (T, error) {
	v, secs, err := timeSetup(st.n, st.build, st.teardown)
	m.setup = append(m.setup, secs...)
	return v, err
}

// after times the second half; traced runs report no setup_s and skip it.
func (st setupTimer[T]) after(e *env, m *measured) error {
	if e.o.trace {
		return nil
	}
	v, secs, err := timeSetup(st.n, st.build, st.teardown)
	if err != nil {
		return err
	}
	st.teardown(v)
	m.setup = append(m.setup, secs...)
	return nil
}

// passes runs run until the budget is spent, at least min times, and
// records each pass in m.
func passes(m *measured, budget time.Duration, min int, run func() (pass, error)) ([]pass, error) {
	var ps []pass
	start := time.Now()
	for i := 0; i < min || time.Since(start) < budget; i++ {
		p, err := run()
		if err != nil {
			return nil, err
		}
		ps = append(ps, p)
		m.ops += p.ops
		m.rates = append(m.rates, p.ops/p.secs)
		m.p50s = append(m.p50s, p.p50)
		m.p99s = append(m.p99s, p.p99)
	}
	return ps, nil
}

// cost is the median per-pass figure tracing would inflate: seconds per op,
// or for an open loop the median latency.
func (m *measured) cost(ps []pass) float64 {
	xs := make([]float64, len(ps))
	for i, p := range ps {
		xs[i] = p.secs / p.ops
		if m.paced {
			xs[i] = p.p50
		}
	}
	return median(xs)
}

// timed runs the workload's timed passes; run does one pass, recording
// spans on the *spans it is given. Untraced runs spend the whole budget
// with spans off, under the allocation and heap meter. Traced runs spend
// half the budget with spans off and half with them on; the ratio of the
// halves' costs is the tracing overhead.
func (e *env) timed(m *measured, min int, run func(*spans) (pass, error)) error {
	mt := startMeter()
	off, err := passes(m, e.budget(), min, func() (pass, error) { return run(nil) })
	mt.finish(m)
	if err != nil || !e.o.trace {
		return err
	}
	on, err := passes(m, e.budget(), min, func() (pass, error) { return run(e.spans) })
	if err == nil {
		m.overhead = (m.cost(on)/m.cost(off) - 1) * 100
	}
	return err
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the nearest-rank q-quantile of xs (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if q == 0.5 && len(s)%2 == 0 {
		return (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	i := int(q*float64(len(s))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// commitOf names the code under test: the VCS revision the binary was
// built from when there is one, else a digest of the checkout's Go
// sources and module files.
func commitOf(root string) string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			if dirty {
				rev += "+dirty"
			}
			return rev
		}
	}
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(path), len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return "tree:" + hex.EncodeToString(h.Sum(nil))[:16]
}
