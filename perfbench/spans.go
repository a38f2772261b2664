package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"lognic/internal/obs"
)

// spans records benchmark-side spans around calls into each layer: name,
// layer, start, end and the span that caused it. Spans of one run or
// request share a trace id. They are kept in memory and written out when
// the benchmark ends. A nil *spans records nothing, so untraced passes pay
// one nil check per call.
type spans struct {
	t0  time.Time
	tr  *obs.Tracer
	ids atomic.Uint64
}

// spanCapacity bounds the in-memory ring; the traced half of an open-loop
// serve run records one span per request.
const spanCapacity = 1 << 19

func newSpans() *spans {
	return &spans{t0: time.Now(), tr: obs.NewTracer(spanCapacity)}
}

// span is one open interval; end closes it.
type span struct {
	s     *spans
	layer string
	name  string
	trace uint64
	id    uint64
	pid   uint64
	start time.Time
}

// root opens a span that starts a new trace (one run or one request).
func (s *spans) root(layer, name string) *span {
	if s == nil {
		return nil
	}
	id := s.ids.Add(1)
	return &span{s: s, layer: layer, name: name, trace: id, id: id, start: time.Now()}
}

// child opens a span caused by p.
func (p *span) child(layer, name string) *span {
	if p == nil {
		return nil
	}
	return &span{s: p.s, layer: layer, name: name, trace: p.trace, id: p.s.ids.Add(1), pid: p.id, start: time.Now()}
}

func (p *span) end() {
	if p == nil {
		return
	}
	sp := obs.Span{
		Name:    p.name,
		Cat:     p.layer,
		Track:   p.trace,
		Start:   p.start.Sub(p.s.t0).Seconds(),
		Dur:     time.Since(p.start).Seconds(),
		TraceID: strconv.FormatUint(p.trace, 16),
		SpanID:  strconv.FormatUint(p.id, 16),
	}
	if p.pid != 0 {
		sp.ParentID = strconv.FormatUint(p.pid, 16)
	}
	p.s.tr.Emit(sp)
}

// selfTimes returns each span's self time — its duration minus the part of
// its interval its children cover — keyed by span id, and the total self
// time per layer in seconds.
func selfTimes(all []obs.Span) (map[string]float64, map[string]float64) {
	children := map[string][]obs.Span{}
	for _, sp := range all {
		if sp.ParentID != "" {
			children[sp.ParentID] = append(children[sp.ParentID], sp)
		}
	}
	self := make(map[string]float64, len(all))
	layers := map[string]float64{}
	for _, sp := range all {
		v := sp.Dur - covered(sp, children[sp.SpanID])
		self[sp.SpanID] = v
		layers[sp.Cat] += v
	}
	return self, layers
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent obs.Span, kids []obs.Span) float64 {
	if len(kids) == 0 {
		return 0
	}
	type iv struct{ a, b float64 }
	ivs := make([]iv, 0, len(kids))
	lo, hi := parent.Start, parent.Start+parent.Dur
	for _, k := range kids {
		a, b := max(k.Start, lo), min(k.Start+k.Dur, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var sum, end float64
	end = lo
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			sum += v.b - end
			end = v.b
		}
	}
	return sum
}

// write exports the spans as a Chrome trace with each span's self time in
// its args, and returns the self time per layer.
func (s *spans) write(path string) (map[string]float64, error) {
	all := s.tr.Spans()
	self, layers := selfTimes(all)
	out := obs.NewTracer(len(all) + 1)
	for _, sp := range all {
		sp.Args = map[string]any{"self_ms": self[sp.SpanID] * 1e3}
		out.Emit(sp)
	}
	summary := map[string]any{"dropped_spans": s.tr.Dropped()}
	for layer, v := range layers {
		summary["self_ms."+layer] = v * 1e3
	}
	out.Emit(obs.Span{Name: "self time per layer", Cat: "bench", Args: summary})
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	w := bufio.NewWriter(f)
	if err := out.WriteChromeTrace(w, "perfbench"); err != nil {
		f.Close()
		return nil, err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	return layers, nil
}

func printSelf(w io.Writer, layers map[string]float64) {
	names := make([]string, 0, len(layers))
	for k := range layers {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintln(w, "self time per layer:")
	for _, k := range names {
		fmt.Fprintf(w, "  %-14s %12.3f ms\n", k, layers[k]*1e3)
	}
}
