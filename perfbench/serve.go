package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"lognic/internal/obs"
	"lognic/internal/serve"
	"lognic/internal/spec"
	"lognic/internal/storm"
)

// Serve workloads run lognic-serve in process on a loopback port and load
// it from the same process with at most nproc workers and connections.
const (
	uncachedCorpus = 4096 // distinct estimate bodies
	checkSample    = 16   // corpus items re-posted after every pass
	hotItems       = 64   // the mixed workload's hot estimate set
	coldItems      = 2048 // its cold tail of estimate/optimize/simulate misses
	coldEvery      = 10   // every tenth mixed request goes to the cold tail
	mixedRate      = 2000 // open-loop arrivals per second, fixed
	mixedCacheB    = 1 << 19
	simPackets     = 4000 // offered packets per cold /v1/simulate item
	passSeconds    = 1.0
	smokeSeconds   = 0.2
	setupRepeats   = 13 // daemon starts timed before the passes, and again after
)

// item is one request: its endpoint, the spec document alone (the layer
// ledger parses it) and the exact POST body.
type item struct {
	endpoint string
	file     spec.File
	spec     []byte
	body     []byte
}

// The corpus is generated from the seed: device × parallelism × packet
// size × offered load, with a per-index nudge on the load so every item is
// distinct. Every generated spec is valid and every request succeeds.
var (
	devices = []struct {
		name                   string
		intf, mem, core, accel float64 // bytes/second
	}{
		{"lio2", 50e9 / 8, 160e9, 10e9 / 8, 40e9 / 8},
		{"bf2", 100e9 / 8, 200e9, 16e9 / 8, 60e9 / 8},
	}
	granularities = []float64{512, 1024, 4096, 16384}
)

func genFile(rng *rand.Rand, i int) spec.File {
	d := devices[rng.Intn(len(devices))]
	par := 1 + rng.Intn(8)
	gran := granularities[rng.Intn(len(granularities))]
	ingress := (0.2+0.6*rng.Float64())*d.core*float64(par) + float64(i)
	if limit := 0.9 * d.intf; ingress > limit {
		ingress = limit - float64(i)
	}
	return spec.File{
		Name:     fmt.Sprintf("bench-%s-%d", d.name, i),
		Hardware: spec.Hardware{InterfaceBW: spec.Bandwidth(d.intf), MemoryBW: spec.Bandwidth(d.mem)},
		Graph: spec.GraphSpec{
			Vertices: []spec.VertexSpec{
				{Name: "rx", Kind: "ingress"},
				{Name: "cores", Kind: "ip", Throughput: spec.Bandwidth(d.core), Parallelism: par, QueueCapacity: 64, Overhead: 3e-7, QueueModel: "mm1n"},
				{Name: "accel", Kind: "ip", Throughput: spec.Bandwidth(d.accel), Parallelism: 2, QueueCapacity: 128, QueueModel: "mmck"},
				{Name: "tx", Kind: "egress"},
			},
			Edges: []spec.EdgeSpec{
				{From: "rx", To: "cores", Delta: 1, Alpha: 1},
				{From: "cores", To: "accel", Delta: 1, Alpha: 1, Beta: 1},
				{From: "accel", To: "tx", Delta: 1},
			},
		},
		Traffic: spec.TrafficSpec{IngressBW: spec.Bandwidth(ingress), Granularity: spec.Size(gran)},
	}
}

func genItem(rng *rand.Rand, i int, endpoint string) (item, error) {
	f := genFile(rng, i)
	doc, err := json.Marshal(f)
	if err != nil {
		return item{}, err
	}
	var req any
	switch endpoint {
	case "estimate":
		req = serve.EstimateRequest{Spec: f}
	case "optimize":
		req = serve.OptimizeRequest{Spec: f, Goal: "latency", Knobs: []serve.KnobSpec{
			{Vertex: "cores", Param: "parallelism", Lo: 1, Hi: 8},
		}}
	case "simulate":
		// A fixed packet count, not a fixed duration, so every cold
		// simulation costs about the same whatever its offered load: the
		// simulations (2.5% of requests, ~10ms each) set the workload's p99
		// with real work rather than with scheduling noise.
		dur := simPackets * float64(f.Traffic.Granularity) / float64(f.Traffic.IngressBW)
		req = serve.SimulateRequest{Spec: f, Duration: dur, Seed: rng.Int63()}
	}
	body, err := json.Marshal(req)
	return item{endpoint: endpoint, file: f, spec: doc, body: body}, err
}

// genCorpus builds n items from the seed; endpointOf picks each one's
// endpoint by index.
func genCorpus(seed int64, n int, endpointOf func(int) string) ([]item, error) {
	rng := rand.New(rand.NewSource(seed))
	out := make([]item, n)
	for i := range out {
		it, err := genItem(rng, i, endpointOf(i))
		if err != nil {
			return nil, err
		}
		out[i] = it
	}
	return out, nil
}

func estimateOnly(int) string { return "estimate" }

// coldEndpoint spreads the cold tail over the three endpoints: half
// estimate, a quarter each optimize and simulate.
func coldEndpoint(i int) string {
	switch i % 4 {
	case 2:
		return "optimize"
	case 3:
		return "simulate"
	}
	return "estimate"
}

// daemon is one in-process lognic-serve instance on a loopback port. reg
// is the registry its /metrics serves; the ledger reads it directly.
type daemon struct {
	url    string
	reg    *obs.Registry
	cancel context.CancelFunc
	done   chan error
	client *http.Client
}

func startDaemon(cfg serve.Config) (*daemon, error) {
	cfg.Addr = "127.0.0.1:0"
	cfg.Workers = runtime.NumCPU()
	cfg.Registry = obs.NewRegistry()
	s := serve.NewServer(cfg)
	if err := s.Listen(); err != nil {
		s.Close()
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	d := &daemon{
		url:    "http://" + s.Addr(),
		reg:    cfg.Registry,
		cancel: cancel,
		done:   make(chan error, 1),
		client: &http.Client{
			Transport: &http.Transport{
				MaxIdleConnsPerHost: runtime.NumCPU(),
				MaxConnsPerHost:     runtime.NumCPU(),
			},
			Timeout: 30 * time.Second,
		},
	}
	go func() { d.done <- s.Serve(ctx) }()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := d.client.Get(d.url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("daemon did not come up: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop drains the daemon and waits for it to exit.
func (d *daemon) stop() {
	d.cancel()
	<-d.done
	d.client.CloseIdleConnections()
}

// post sends one request and returns its status and body.
func (d *daemon) post(it *item) (int, []byte, error) {
	resp, err := d.client.Post(d.url+"/v1/"+it.endpoint, "application/json", bytes.NewReader(it.body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// recordCold posts each item once and returns the bodies: the cold answers
// every later answer for the same item must equal byte for byte.
func (d *daemon) recordCold(items []*item) ([][]byte, error) {
	out := make([][]byte, len(items))
	for i, it := range items {
		code, body, err := d.post(it)
		if err != nil || code != http.StatusOK {
			return nil, fmt.Errorf("cold %s request: status %d, %v", it.endpoint, code, err)
		}
		out[i] = body
	}
	return out, nil
}

// sampled is a fixed sample of corpus items with their cold bodies.
type sampled struct {
	items []*item
	cold  [][]byte
}

// verify re-posts the sample; each answer must be a 200 whose body equals
// the cold body.
func (s *sampled) verify(e *env, d *daemon, sp *spans) {
	for i, it := range s.items {
		span := sp.root("serve", "check "+it.endpoint)
		code, body, err := d.post(it)
		span.end()
		switch {
		case err != nil:
			e.tally.fail("check %s: %v", it.endpoint, err)
		case code != http.StatusOK:
			e.tally.fail("check %s: status %d", it.endpoint, code)
		case !bytes.Equal(body, s.cold[i]):
			e.tally.fail("check %s: body differs from the cold answer", it.endpoint)
		default:
			e.tally.ok(1)
		}
	}
}

// pickSample takes n items spread over the corpus; the +i offset walks the
// sample across the endpoint cycle of a mixed corpus.
func pickSample(items []item, n int) []*item {
	out := make([]*item, 0, n)
	for i := 0; i < n && i < len(items); i++ {
		out = append(out, &items[(i*len(items)/n+i)%len(items)])
	}
	return out
}

func (e *env) passDuration() time.Duration {
	if e.o.smoke {
		return time.Duration(smokeSeconds * float64(time.Second))
	}
	return time.Duration(passSeconds * float64(time.Second))
}

// uncachedInput is serve-estimate-uncached's generated input: the storm
// corpus and the checked sample. It is built once, outside the timed
// set-up, which times only the program: daemon start and cold answers.
type uncachedInput struct {
	corpus []storm.Item
	sample []*item
}

func genUncached(seed int64) (*uncachedInput, error) {
	items, err := genCorpus(seed, uncachedCorpus, estimateOnly)
	if err != nil {
		return nil, err
	}
	in := &uncachedInput{corpus: make([]storm.Item, len(items)), sample: pickSample(items, checkSample)}
	for i, it := range items {
		in.corpus[i] = storm.Item{Endpoint: it.endpoint, Body: it.body, Evals: 1}
	}
	return in, nil
}

// uncachedSetup is a running cache-off daemon and its input.
type uncachedSetup struct {
	d       *daemon
	corpus  []storm.Item
	checked sampled // the sample with its cold answers
}

// start brings up a cache-off daemon and records the sample's cold answers.
func (in *uncachedInput) start() (*uncachedSetup, error) {
	d, err := startDaemon(serve.Config{CacheEntries: -1})
	if err != nil {
		return nil, err
	}
	u := &uncachedSetup{d: d, corpus: in.corpus, checked: sampled{items: in.sample}}
	if u.checked.cold, err = d.recordCold(in.sample); err != nil {
		d.stop()
		return nil, err
	}
	return u, nil
}

// stormPass drives one closed-loop storm step and tallies its outcome.
func (u *uncachedSetup) stormPass(e *env, dur time.Duration, sp *spans) (*storm.Report, error) {
	span := sp.root("storm", "storm.Run")
	rep, err := storm.Run(context.Background(), storm.Config{
		Targets:  []string{u.d.url},
		Workers:  runtime.NumCPU(),
		Duration: dur,
		Corpus:   u.corpus,
		Client:   u.d.client,
	})
	span.end()
	if err != nil {
		return nil, err
	}
	e.tally.ok(int64(rep.Completed))
	if bad := rep.Shed + rep.Dropped + rep.Errors4xx + rep.Errors5xx + rep.NetErrors; bad > 0 {
		e.tally.failN(int64(bad), "storm: %d shed, %d dropped, %d 4xx, %d 5xx, %d network errors",
			rep.Shed, rep.Dropped, rep.Errors4xx, rep.Errors5xx, rep.NetErrors)
	}
	return rep, nil
}

func runServeUncached(e *env) (*measured, error) {
	m := &measured{}
	in, err := genUncached(e.o.seed)
	if err != nil {
		return nil, err
	}
	st := setupTimer[*uncachedSetup]{n: setupRepeats, build: in.start, teardown: func(u *uncachedSetup) { u.d.stop() }}
	u, err := st.before(m)
	if err != nil {
		return nil, err
	}
	defer u.d.stop()
	if _, err := u.stormPass(e, e.passDuration()/4, nil); err != nil {
		return nil, err
	}
	err = e.timed(m, 3, func(sp *spans) (pass, error) {
		rep, err := u.stormPass(e, e.passDuration(), sp)
		if err != nil {
			return pass{}, err
		}
		lat := rep.Latency["estimate"]
		if lat == nil || rep.Completed == 0 {
			return pass{}, fmt.Errorf("storm pass completed no estimate request")
		}
		u.checked.verify(e, u.d, sp)
		return pass{ops: float64(rep.Completed), secs: rep.DurationSec, p50: lat.P50Ms, p99: lat.P99Ms}, nil
	})
	if err != nil {
		return nil, err
	}
	return m, st.after(e, m)
}

// mixedInput is serve-mixed-cached's generated input: a hot estimate set
// the exact-body L1 serves, a cold tail that misses, inserts and evicts
// under a reduced byte budget, and the checked sample of the tail. Like
// uncachedInput it is built once, outside the timed set-up.
type mixedInput struct {
	hot, cold []item
	sample    []*item
}

func genMixed(seed int64) (*mixedInput, error) {
	hot, err := genCorpus(seed, hotItems, estimateOnly)
	if err != nil {
		return nil, err
	}
	cold, err := genCorpus(seed+1, coldItems, coldEndpoint)
	if err != nil {
		return nil, err
	}
	return &mixedInput{hot: hot, cold: cold, sample: pickSample(cold, checkSample)}, nil
}

// mixedSetup is a running cached daemon and its input.
type mixedSetup struct {
	*mixedInput
	d       *daemon
	hotCold [][]byte      // cold body of every hot item
	checked sampled       // the sample with its cold answers
	next    atomic.Uint64 // requests issued, across passes
	tail    atomic.Uint64 // cold-tail cursor
}

// start brings up a cached daemon and records the cold answers of the hot
// set and of the sample, which warms the cache with them.
func (in *mixedInput) start() (*mixedSetup, error) {
	d, err := startDaemon(serve.Config{CacheBytes: mixedCacheB})
	if err != nil {
		return nil, err
	}
	x := &mixedSetup{mixedInput: in, d: d, checked: sampled{items: in.sample}}
	hotPtrs := make([]*item, len(in.hot))
	for i := range in.hot {
		hotPtrs[i] = &in.hot[i]
	}
	if x.hotCold, err = d.recordCold(hotPtrs); err == nil {
		x.checked.cold, err = d.recordCold(in.sample)
	}
	if err != nil {
		d.stop()
		return nil, err
	}
	return x, nil
}

// splitmix is a stateless hash of the request counter: it decides which
// hot item request g sends, so the mix is fixed by the seed and the count.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// fire sends the next request of the mix and checks it: every answer must
// be a 200, and a hot answer must equal that item's cold body.
//
// Every coldEvery-th request is cold, so the seed decides which items are
// sent but not when cold work arrives: cold requests placed by the seed
// could bunch on some seeds, hold every connection at once and queue the
// hot requests behind them.
func (x *mixedSetup) fire(e *env, sp *spans) bool {
	g := x.next.Add(1) - 1
	var it *item
	var want []byte
	if g%coldEvery == coldEvery-1 {
		it = &x.cold[(x.tail.Add(1)-1)%uint64(len(x.cold))]
	} else {
		k := splitmix(uint64(e.o.seed)<<32^g) % uint64(len(x.hot))
		it, want = &x.hot[k], x.hotCold[k]
	}
	span := sp.root("serve", it.endpoint)
	code, body, err := x.d.post(it)
	span.end()
	switch {
	case err != nil:
		e.tally.fail("%s: %v", it.endpoint, err)
	case code != http.StatusOK:
		e.tally.fail("%s: status %d", it.endpoint, code)
	case want != nil && !bytes.Equal(body, want):
		e.tally.fail("hot %s: body differs from the cold answer", it.endpoint)
	default:
		e.tally.ok(1)
		return true
	}
	return false
}

// openPass runs one open-loop pass and returns the completed count and the
// per-request lateness and latency in milliseconds.
func (x *mixedSetup) openPass(e *env, dur time.Duration, sp *spans) (float64, time.Duration, []float64, []float64) {
	ol := openLoop{rate: mixedRate, n: int(mixedRate * dur.Seconds()), workers: runtime.NumCPU()}
	var okCount atomic.Int64
	late, lat, elapsed := ol.run(func(int) {
		if x.fire(e, sp) {
			okCount.Add(1)
		}
	})
	return float64(okCount.Load()), elapsed, late, lat
}

func runServeMixed(e *env) (*measured, error) {
	m := &measured{paced: true}
	in, err := genMixed(e.o.seed)
	if err != nil {
		return nil, err
	}
	st := setupTimer[*mixedSetup]{n: setupRepeats, build: in.start, teardown: func(x *mixedSetup) { x.d.stop() }}
	x, err := st.before(m)
	if err != nil {
		return nil, err
	}
	defer x.d.stop()
	x.openPass(e, e.passDuration()/4, nil)
	err = e.timed(m, 3, func(sp *spans) (pass, error) {
		ok, elapsed, late, lat := x.openPass(e, e.passDuration(), sp)
		m.lateMs = append(m.lateMs, late...)
		x.checked.verify(e, x.d, sp)
		return pass{ops: ok, secs: elapsed.Seconds(), p50: quantile(lat, 0.5), p99: quantile(lat, 0.99)}, nil
	})
	if err != nil {
		return nil, err
	}
	return m, st.after(e, m)
}

// openLoop sends n requests on a fixed schedule — request i is due at
// start + i/rate — from a pool of workers that each take the next due
// request in turn. Lateness is how long after its due time a request was
// sent; latency runs from the due time to completion, so a stall charges
// every request queued behind it. now defaults to the wall clock, and
// sleep to a newSleeper per worker.
type openLoop struct {
	rate    float64
	n       int
	workers int
	now     func() time.Time
	sleep   func(time.Duration)
}

func (ol openLoop) run(fire func(i int)) (lateMs, latMs []float64, elapsed time.Duration) {
	if ol.now == nil {
		ol.now = time.Now
	}
	lateMs = make([]float64, ol.n)
	latMs = make([]float64, ol.n)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := ol.now()
	for w := 0; w < ol.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sleep := ol.sleep
			if sleep == nil {
				var release func()
				sleep, release = newSleeper()
				defer release()
			}
			for {
				i := int(next.Add(1) - 1)
				if i >= ol.n {
					return
				}
				due := start.Add(time.Duration(float64(i) / ol.rate * float64(time.Second)))
				if d := due.Sub(ol.now()); d > 0 {
					sleep(d)
				}
				sent := ol.now()
				fire(i)
				done := ol.now()
				lateMs[i] = float64(sent.Sub(due)) / 1e6
				latMs[i] = float64(done.Sub(due)) / 1e6
			}
		}()
	}
	wg.Wait()
	return lateMs, latMs, ol.now().Sub(start)
}
