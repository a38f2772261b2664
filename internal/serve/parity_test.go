package serve_test

// The differential test behind docs/SERVE.md's parity claim: for the same
// spec, the CLI's -json output, the synchronous endpoint and an async job
// return the same bytes — and for simulations, so does a job resumed from
// a mid-run checkpoint. All of them take the one road through
// internal/eval; this pins that they keep doing so. Inputs: the CI smoke
// spec and one spec per device catalog in internal/devices.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"lognic/internal/apps"
	"lognic/internal/cli"
	"lognic/internal/core"
	"lognic/internal/devices"
	"lognic/internal/nvme"
	"lognic/internal/serve"
	"lognic/internal/spec"
)

// paritySpec is one input: its spec document and the IP vertex whose
// parallelism the optimize leg searches.
type paritySpec struct {
	name string
	doc  []byte
	knob string
}

func paritySpecs(t *testing.T) []paritySpec {
	t.Helper()
	smoke, err := os.ReadFile("testdata/smoke-spec.json")
	if err != nil {
		t.Fatal(err)
	}
	out := []paritySpec{{name: "ci-smoke", doc: smoke, knob: "cores"}}

	lio := devices.LiquidIO2CN2360()
	bf2 := devices.BlueField2DPU()
	chain := apps.MiddleboxChain()
	build := []struct {
		name string
		m    func() (core.Model, error)
	}{
		{"liquidio2", func() (core.Model, error) {
			return apps.InlineAccel(apps.InlineAccelConfig{Device: lio, Accel: "md5", Cores: 4, PacketBytes: 1500})
		}},
		{"bluefield2", func() (core.Model, error) {
			return apps.NFChainModel(bf2, chain, apps.ARMOnly(chain), 1500, 10e9)
		}},
		{"stingray", func() (core.Model, error) {
			return apps.NVMeoF(apps.NVMeoFConfig{Device: devices.StingrayPS1100R(),
				Drive: nvme.StingrayDrive(false), Kind: nvme.RandRead, IOBytes: 4096, OfferedBW: 200e6})
		}},
		{"panic", func() (core.Model, error) {
			return apps.PANICPipelined(devices.PANICPrototype(), 512, 0.8*4.0e6*512, 8)
		}},
	}
	for _, b := range build {
		m, err := b.m()
		if err != nil {
			t.Fatalf("%s: %v", b.name, err)
		}
		f := spec.FromModel(m)
		doc, err := f.Encode()
		if err != nil {
			t.Fatalf("%s: %v", b.name, err)
		}
		knob := ""
		for _, v := range f.Graph.Vertices {
			if v.Kind == "ip" {
				knob = v.Name
				break
			}
		}
		out = append(out, paritySpec{name: b.name, doc: doc, knob: knob})
	}
	return out
}

// recordingSlot is a job checkpoint slot that keeps every snapshot saved
// to it and answers Load with a preset one.
type recordingSlot struct {
	load  []byte
	saves [][]byte
}

func (r *recordingSlot) Load() ([]byte, bool) { return r.load, r.load != nil }
func (r *recordingSlot) Save(b []byte)        { r.saves = append(r.saves, b) }

func TestSurfacesReturnIdenticalBytes(t *testing.T) {
	s := serve.NewServer(serve.Config{JobCheckpointEvery: 1024})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	serve.WaitReady(t, ts.Client(), ts.URL)

	const duration, seed = 0.01, 7
	for _, ps := range paritySpecs(t) {
		t.Run(ps.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "model.json")
			if err := os.WriteFile(path, ps.doc, 0o644); err != nil {
				t.Fatal(err)
			}
			m, err := cli.LoadModel(path)
			if err != nil {
				t.Fatal(err)
			}
			doc := string(ps.doc)

			legs := []struct {
				kind string
				body string
				cli  func(w io.Writer) error
			}{
				{"estimate", `{"spec": ` + doc + `}`, func(w io.Writer) error {
					return cli.RunPoint(w, m, true)
				}},
				// The CLI searches with a 65536-evaluation budget; the
				// request asks for the same.
				{"optimize", fmt.Sprintf(`{"spec": %s, "goal": "latency", "max_evals": 65536,
					"knobs": [{"vertex": %q, "param": "parallelism", "lo": 1, "hi": 8}]}`, doc, ps.knob),
					func(w io.Writer) error {
						return cli.RunOptimize(w, m, "latency", []string{ps.knob + ".parallelism=1..8"}, true)
					}},
				{"simulate", fmt.Sprintf(`{"spec": %s, "duration": %v, "seed": %d}`, doc, duration, seed),
					func(w io.Writer) error {
						return cli.RunSim(w, m, cli.SimOptions{Duration: duration, Seed: seed, JSON: true})
					}},
			}
			for _, leg := range legs {
				var want bytes.Buffer
				if err := leg.cli(&want); err != nil {
					t.Fatalf("%s: CLI: %v", leg.kind, err)
				}
				resp, sync := serve.Post(t, ts.Client(), ts.URL+"/v1/"+leg.kind, leg.body)
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("%s: sync status %d: %s", leg.kind, resp.StatusCode, sync)
				}
				if !bytes.Equal(sync, want.Bytes()) {
					t.Fatalf("%s: sync endpoint differs from the CLI\ncli:  %s\nsync: %s", leg.kind, want.Bytes(), sync)
				}
				// The job view embeds the result as raw JSON, which drops
				// the trailing newline every surface ends its bytes with.
				async := runJob(t, ts.URL, leg.kind, leg.body)
				if !bytes.Equal(async, bytes.TrimSuffix(want.Bytes(), []byte("\n"))) {
					t.Fatalf("%s: async job differs from the CLI\ncli: %s\njob: %s", leg.kind, want.Bytes(), async)
				}
				if leg.kind == "simulate" {
					resumedMatches(t, s, leg.body, want.Bytes())
				}
			}
		})
	}
}

// resumedMatches runs a simulate job attempt to the end, recording its
// checkpoints, then a second attempt that finds the middle one in its
// slot: the resumed attempt must take the remaining checkpoints only and
// return want.
func resumedMatches(t *testing.T, s *serve.Server, body string, want []byte) {
	t.Helper()
	full := &recordingSlot{}
	out, err := s.EvalJob(context.Background(), "parity", "simulate", []byte(body), full)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, want) {
		t.Fatalf("uninterrupted job attempt differs from the CLI\ncli: %s\njob: %s", want, out)
	}
	if len(full.saves) < 2 {
		t.Fatalf("run took %d checkpoints; need a mid-run one", len(full.saves))
	}
	mid := len(full.saves) / 2
	resumed := &recordingSlot{load: full.saves[mid]}
	out, err = s.EvalJob(context.Background(), "parity", "simulate", []byte(body), resumed)
	if err != nil {
		t.Fatal(err)
	}
	if got, wantSaves := len(resumed.saves), len(full.saves)-mid-1; got != wantSaves {
		t.Fatalf("resumed attempt took %d checkpoints, want %d: it did not resume from checkpoint %d", got, wantSaves, mid)
	}
	if !bytes.Equal(out, want) {
		t.Fatalf("job resumed from checkpoint %d of %d differs from the CLI\ncli: %s\njob: %s", mid, len(full.saves), want, out)
	}
}

// runJob submits a job and polls it to success, returning its result.
func runJob(t *testing.T, url, kind, request string) []byte {
	t.Helper()
	code, v := serve.SubmitJob(t, http.DefaultClient, url, kind, request)
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("%s: submit status %d", kind, code)
	}
	if v = serve.PollJob(t, http.DefaultClient, url, v.ID); v.State != "succeeded" {
		t.Fatalf("%s job %s: %s", kind, v.State, v.Error)
	}
	return v.Result
}
