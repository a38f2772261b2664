package eval

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"testing"

	"lognic/internal/core"
	"lognic/internal/optimizer"
)

func testModel(t *testing.T) core.Model {
	t.Helper()
	g, err := core.NewBuilder("eval-test").
		AddIngress("in").
		AddIP("ip", 1e9, 2, 32).
		AddEgress("out").
		Connect("in", "ip", 1).
		Connect("ip", "out", 1).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return core.Model{
		Hardware: core.Hardware{InterfaceBW: 50e9},
		Graph:    g,
		Traffic:  core.Traffic{IngressBW: 0.8e9, Granularity: 1024},
	}
}

// Encode writes exactly what a json.Encoder does, so surfaces that used
// to stream through one keep their bytes.
func TestEncodeMatchesEncoder(t *testing.T) {
	pt, err := Point(testModel(t))
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(pt); err != nil {
		t.Fatal(err)
	}
	got, err := Encode(pt)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("Encode = %s, json.Encoder = %s", got, want.Bytes())
	}
}

func TestEncodeNonFinite(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := Encode(struct{ X float64 }{v}); !errors.Is(err, ErrNonFinite) {
			t.Errorf("Encode(%v) err = %v, want ErrNonFinite", v, err)
		}
	}
}

func TestPointRejectsNonFinite(t *testing.T) {
	m := testModel(t)
	m.Traffic.Granularity = 1.7e308
	if _, err := Point(m); !errors.Is(err, ErrNonFinite) {
		t.Fatalf("Point err = %v, want ErrNonFinite", err)
	}
}

// Optimize keys the chosen values by knob name.
func TestOptimizeKnobResult(t *testing.T) {
	res, err := Optimize(testModel(t), optimizer.MinimizeLatency,
		[]optimizer.IntKnob{{Vertex: "ip", Param: optimizer.KnobQueue, Lo: 1, Hi: 8}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Knobs["ip.queue"] < 1 || res.Goal != "min-latency" || !res.Exhaustive {
		t.Fatalf("Optimize = %+v", res)
	}
}
