package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/deck"
	"repro/internal/obs"
	"repro/internal/serve"
)

// ladderRates are serve_mix's offered rates in requests per second. The
// open loop steps through them, each for an equal share of baseShare of
// the run, and the result line's metrics come from these steps. Their
// throughput is the offered rate, so it shows only whether requests kept
// up, not capacity.
var ladderRates = []float64{50, 100, 150, 200}

// sloRates extend the ladder geometrically to find capacity. After the
// base steps, each runs for sloStepShare of the run until one misses the
// limit; slo_rate_rps is the highest rate up to which every step met it.
var sloRates = []float64{300, 450, 675, 1013, 1519, 2278, 3417}

const (
	baseShare    = 0.75
	sloStepShare = 0.04
)

// sloP99MS is the serve_mix latency limit: a rate step meets it when the
// due-time p99 of its requests is at most this many milliseconds (a few
// times the ~20 ms warm default-mesh reference solve) and its backlog does
// not grow.
const sloP99MS = 100

// The request mix, fixed per block of 20 requests so every run offers the
// same proportions. The proportions are assumptions, not measured traffic:
// analytic /solve (Models A, B and 1-D, the paper's fast path) is most of
// the load and sets p50 through HTTP, JSON, lowering, Model B and
// rendering; /deck posts keep the deck parser and lowering on the serving
// path; default-mesh reference /solve requests are one in ten, enough to
// set p99 and to reach the warm pool and request coalescing.
const (
	kindAnalytic = "analytic"
	kindDeck     = "deck"
	kindRef      = "ref"
)

var (
	mixBlock = append(append(repeat(kindAnalytic, 16), repeat(kindDeck, 2)...), repeat(kindRef, 2)...)
	// Keys follow ttsvload's hotspot mix: hotShare of the requests of each
	// kind go to one key and the rest spread evenly over the others.
	// Analytic and /deck requests draw from the whole catalogue with the
	// paper's Fig. 4 baseline as the hot key; reference requests draw from
	// refKeys, whose first entry is hot.
	hotKey   = 1
	hotShare = 0.8
	refKeys  = []int{1, 7, 19}
)

func repeat(s string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = s
	}
	return out
}

// pickKey returns keys[0] with probability hotShare, otherwise one of the
// other keys uniformly.
func pickKey(rng *rand.Rand, keys []int) int {
	if len(keys) == 1 || rng.Float64() < hotShare {
		return keys[0]
	}
	return keys[1+rng.IntN(len(keys)-1)]
}

// mixReq is one scheduled request.
type mixReq struct {
	due   time.Duration // offset from the schedule's start
	step  int
	kind  string
	entry int
}

// mixInputs is a generated schedule plus the request bodies it refers to.
type mixInputs struct {
	reqs     []mixReq
	rates    []float64 // offered rate of each step
	stepDur  time.Duration
	solve    [][]byte // per entry: analytic /solve body
	refSolve [][]byte // per entry: reference /solve body
	decks    [][]byte // per entry: /deck body
}

func (in *mixInputs) request(r mixReq) (path, ctype string, body []byte) {
	switch r.kind {
	case kindDeck:
		return "/deck", "text/plain", in.decks[r.entry]
	case kindRef:
		return "/solve", "application/json", in.refSolve[r.entry]
	default:
		return "/solve", "application/json", in.solve[r.entry]
	}
}

// genMix draws a schedule of one step of stepDur per rate: per step, a
// fixed count of arrivals at seeded uniform times (a Poisson process
// conditioned on its count), kinds from shuffled mix blocks, keys from the
// hotspot mix. Schedules of different streams are independent.
func genMix(seed, stream uint64, rates []float64, stepDur time.Duration) *mixInputs {
	rng := rand.New(rand.NewPCG(seed, 0x5eed+stream))
	in := &mixInputs{rates: rates, stepDur: stepDur}
	for _, e := range catalogue {
		in.solve = append(in.solve, e.solveBody("a,b,1d"))
		in.refSolve = append(in.refSolve, e.solveBody("ref"))
		in.decks = append(in.decks, []byte(e.deckText(".op model=a,b,1d")))
	}
	for k, rate := range rates {
		n := int(math.Round(rate * stepDur.Seconds()))
		start := time.Duration(k) * stepDur
		dues := make([]time.Duration, n)
		for i := range dues {
			dues[i] = start + time.Duration(rng.Float64()*float64(stepDur))
		}
		sort.Slice(dues, func(i, j int) bool { return dues[i] < dues[j] })
		for _, d := range dues {
			in.reqs = append(in.reqs, mixReq{due: d, step: k})
		}
	}
	var kinds []string
	for len(kinds) < len(in.reqs) {
		b := append([]string(nil), mixBlock...)
		rng.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
		kinds = append(kinds, b...)
	}
	all := []int{hotKey}
	for i := range catalogue {
		if i != hotKey {
			all = append(all, i)
		}
	}
	for i := range in.reqs {
		r := &in.reqs[i]
		r.kind = kinds[i]
		if r.kind == kindRef {
			r.entry = pickKey(rng, refKeys)
		} else {
			r.entry = pickKey(rng, all)
		}
	}
	return in
}

// window returns the requests due in [lo, hi), shifted to start at 0.
func (in *mixInputs) window(lo, hi time.Duration) *mixInputs {
	w := *in
	w.reqs = nil
	for _, r := range in.reqs {
		if r.due >= lo && r.due < hi {
			r.due -= lo
			w.reqs = append(w.reqs, r)
		}
	}
	return &w
}

// deckTexts returns the /deck bodies the schedule posts, one per request.
func (in *mixInputs) deckTexts() []string {
	var out []string
	for _, r := range in.reqs {
		if r.kind == kindDeck {
			out = append(out, string(in.decks[r.entry]))
		}
	}
	return out
}

// server is an in-process ttsvd started through serve.ListenAndServe.
type server struct {
	addr   string
	cancel context.CancelFunc
	done   chan error
}

func startServer(cfg serve.Config) (*server, error) {
	ctx, cancel := context.WithCancel(context.Background())
	s := &server{cancel: cancel, done: make(chan error, 1)}
	ready := make(chan string, 1)
	go func() {
		s.done <- serve.ListenAndServe(ctx, "127.0.0.1:0", cfg, 5*time.Second, func(a string) { ready <- a })
	}()
	select {
	case s.addr = <-ready:
	case err := <-s.done:
		cancel()
		return nil, fmt.Errorf("server start: %w", err)
	}
	// The server has started when it answers its health check.
	tp := &http.Transport{DisableKeepAlives: true}
	defer tp.CloseIdleConnections()
	resp, err := (&http.Client{Transport: tp, Timeout: 5 * time.Second}).Get("http://" + s.addr + "/healthz")
	if err == nil {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("status %d", resp.StatusCode)
		}
	}
	if err != nil {
		return nil, errors.Join(fmt.Errorf("server health check: %w", err), s.stop())
	}
	return s, nil
}

// stop shuts the server down and waits until it has returned.
func (s *server) stop() error {
	s.cancel()
	return <-s.done
}

// record is one request's timeline, as offsets from the schedule start.
type record struct {
	gen, sent, done time.Duration
	err             error
}

// driveOut is one open-loop window.
type driveOut struct {
	recs      []record
	wall, cpu time.Duration
	alloc     uint64
}

// drive replays the schedule open loop against addr over at most conns
// keep-alive connections: a generator releases each request at its due
// time into a queue that conns senders drain. With a tracer, each request
// is an http.request span.
func drive(addr string, in *mixInputs, conns int, o *oracle, tr *obs.Tracer) driveOut {
	tp := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	client := &http.Client{Transport: tp, Timeout: time.Minute}
	defer tp.CloseIdleConnections()
	recs := make([]record, len(in.reqs))
	queue := make(chan int, len(in.reqs)) // sized to the schedule, so the generator never blocks
	var wg sync.WaitGroup
	u0 := readUsage()
	t0 := u0.at
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				recs[i].sent = time.Since(t0)
				recs[i].err = send(client, addr, in, in.reqs[i], o, tr)
				recs[i].done = time.Since(t0)
			}
		}()
	}
	for i, r := range in.reqs {
		if d := time.Until(t0.Add(r.due)); d > 0 {
			time.Sleep(d)
		}
		recs[i].gen = time.Since(t0)
		queue <- i
	}
	close(queue)
	wg.Wait()
	u1 := readUsage()
	return driveOut{recs: recs, wall: u1.at.Sub(t0), cpu: u1.cpu - u0.cpu, alloc: u1.alloc - u0.alloc}
}

// send posts one request and checks its report against the oracle.
func send(client *http.Client, addr string, in *mixInputs, r mixReq, o *oracle, tr *obs.Tracer) error {
	sp := tr.Start("http.request")
	defer sp.End()
	path, ctype, body := in.request(r)
	sp.Set("path", path)
	resp, err := client.Post("http://"+addr+path, ctype, bytes.NewReader(body))
	if err != nil {
		return err
	}
	rep, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: status %d: %s", path, catalogue[r.entry].Name, resp.StatusCode, bytes.TrimSpace(rep))
	}
	models := analyticModels
	if r.kind == kindRef {
		models = []string{modelRef}
	}
	return o.checkOp(rep, catalogue[r.entry].Name, 1, models)
}

// latencies returns the due-time latency (ms) of each successful request
// and the number that failed.
func (d driveOut) latencies(in *mixInputs) (lat []float64, failed int) {
	for i, r := range d.recs {
		if r.err != nil {
			failed++
			continue
		}
		lat = append(lat, ms(r.done-in.reqs[i].due))
	}
	return lat, failed
}

func (d driveOut) errs() []string {
	var out []string
	for _, r := range d.recs {
		if r.err != nil && len(out) < 5 {
			out = append(out, r.err.Error())
		}
	}
	return out
}

// backlogPoints is how many instants per half step the backlog is sampled at.
const backlogPoints = 20

// ladder reports each rate step's due-time latency and backlog growth, and
// whether every step met the limit. A failed request misses the limit.
func (d driveOut) ladder(in *mixInputs, conns int) (out []metric, met bool) {
	backlog := func(t time.Duration) int {
		n := 0
		for i, r := range d.recs {
			if in.reqs[i].due <= t {
				n++
			}
			if r.done <= t {
				n--
			}
		}
		return n
	}
	met = true
	for k, rate := range in.rates {
		var lat []float64
		for i, r := range d.recs {
			if in.reqs[i].step != k {
				continue
			}
			if r.err != nil {
				lat = append(lat, math.Inf(1))
			} else {
				lat = append(lat, ms(r.done-in.reqs[i].due))
			}
		}
		// Mean backlog over each half of the step, sampled at backlogPoints
		// instants: a queue that grows shows as a later half that holds
		// more than a connection's worth above the earlier one.
		var half [2]float64
		start := time.Duration(k) * in.stepDur
		for j := 0; j < 2*backlogPoints; j++ {
			t := start + time.Duration(j+1)*in.stepDur/(2*backlogPoints)
			half[j/backlogPoints] += float64(backlog(t)) / backlogPoints
		}
		p99 := quantile(lat, 0.99)
		met = met && p99 <= sloP99MS && half[1] <= half[0]+float64(conns)
		pre := fmt.Sprintf("step.%grps.", rate)
		out = append(out,
			metric{pre + "latency_ms.p50", quantile(lat, 0.5), "ms", len(lat)},
			metric{pre + "latency_ms.p99", p99, "ms", len(lat)},
			metric{pre + "backlog_growth", half[1] - half[0], "count", 0})
	}
	return out, met
}

// lateness appends the load generator's own lateness per request, in ms:
// due → sent to queue, due → released by the generator to gen.
func (d driveOut) lateness(in *mixInputs, queue, gen []float64) ([]float64, []float64) {
	for i, r := range d.recs {
		queue = append(queue, ms(r.sent-in.reqs[i].due))
		gen = append(gen, ms(r.gen-in.reqs[i].due))
	}
	return queue, gen
}

func latenessMetrics(queue, gen []float64) []metric {
	return []metric{
		{"bench.queue_ms.p99", quantile(queue, 0.99), "ms", len(queue)},
		{"bench.gen_late_ms.p99", quantile(gen, 0.99), "ms", len(gen)},
	}
}

func runServeMix(cfg config, o *oracle) (*result, error) {
	if cfg.trace {
		return runServeMixTraced(cfg, o)
	}
	conns := runtime.NumCPU()
	var (
		in  *mixInputs
		srv *server
	)
	setup := func() (err error) {
		in = genMix(cfg.seed, 0, ladderRates, cfg.dur(baseShare)/time.Duration(len(ladderRates)))
		if err := preflight(in.deckTexts()); err != nil {
			return err
		}
		srv, err = startServer(serve.Config{})
		return err
	}
	reps, err := timeSetup(setup, func() error { return srv.stop() })
	if err != nil {
		return nil, err
	}
	d := drive(srv.addr, in, conns, o, nil)
	lat, failed := d.latencies(in)
	res := endToEnd(reps, lat, len(d.recs), failed, d.wall, d.cpu, d.alloc)
	res.errs = d.errs()
	queue, gen := d.lateness(in, nil, nil)

	// The capacity search, on the same warm server: the sloRates steps
	// run in turn until one misses the limit.
	steps, met := d.ladder(in, conns)
	slo := 0.0
	if met {
		slo = ladderRates[len(ladderRates)-1]
	}
	for k := 0; met && k < len(sloRates); k++ {
		ext := genMix(cfg.seed, uint64(k+1), sloRates[k:k+1], cfg.dur(sloStepShare))
		e := drive(srv.addr, ext, conns, o, nil)
		_, f := e.latencies(ext)
		res.attempted += len(e.recs)
		res.failed += f
		res.errs = append(res.errs, e.errs()...)
		queue, gen = e.lateness(ext, queue, gen)
		var m []metric
		m, met = e.ladder(ext, conns)
		steps = append(steps, m...)
		if met {
			slo = sloRates[k]
		}
	}
	if err := srv.stop(); err != nil {
		return nil, err
	}
	res.report = append(res.report, steps...)
	res.report = append(res.report, metric{"slo_rate_rps", slo, "1/s", 0})
	res.report = append(res.report, latenessMetrics(queue, gen)...)
	return res, nil
}

// chunksPerStep is how many chunks the traced run cuts each rate step into;
// chunks alternate between the untraced and the traced server in pairs.
const chunksPerStep = 8

// runServeMixTraced replays the base ladder in chunks that alternate
// between an untraced server and a traced one, swapping which goes first
// from pair to pair, and folds the traced chunks into per-layer metrics.
// trace.overhead_pct is the median over pairs of the traced/untraced p50
// ratio.
func runServeMixTraced(cfg config, o *oracle) (*result, error) {
	conns := runtime.NumCPU()
	in := genMix(cfg.seed, 0, ladderRates, cfg.dur(0.9)/time.Duration(len(ladderRates)))
	plain, err := startServer(serve.Config{})
	if err != nil {
		return nil, err
	}
	tr := startTrace()
	traced, err := startServer(serve.Config{Registry: tr.reg, Trace: tr.tracer})
	if err != nil {
		return nil, errors.Join(err, plain.stop())
	}
	res := &result{}
	var (
		ratios, queue, gen []float64
		tracedReqs         int
	)
	chunk := in.stepDur / chunksPerStep
	for c := 0; c < len(ladderRates)*chunksPerStep; c += 2 {
		var p [2]float64
		for k := 0; k < 2; k++ {
			w := in.window(time.Duration(c+k)*chunk, time.Duration(c+k+1)*chunk)
			side := (c/2 + k) % 2 // 1 = traced
			var d driveOut
			if side == 1 {
				tr.on()
				d = drive(traced.addr, w, conns, o, tr.tracer)
				tr.off()
				tracedReqs += len(d.recs)
				queue, gen = d.lateness(w, queue, gen)
			} else {
				d = drive(plain.addr, w, conns, o, nil)
			}
			lat, failed := d.latencies(w)
			p[side] = p50(lat)
			res.attempted += len(d.recs)
			res.failed += failed
			res.errs = append(res.errs, d.errs()...)
		}
		if p[0] > 0 && p[1] > 0 {
			ratios = append(ratios, p[1]/p[0])
		}
	}
	tr.endWindow(tracedReqs)
	if err := errors.Join(plain.stop(), traced.stop()); err != nil {
		return nil, err
	}
	tr.report = append(tr.report, latenessMetrics(queue, gen)...)

	// The benchmark's own layer timings on the schedule's inputs: the deck
	// path on the /deck bodies, the analytic models on the /solve stacks.
	seen := make(map[int]bool)
	var es []entry
	for _, r := range in.reqs {
		if r.kind != kindRef && !seen[r.entry] {
			seen[r.entry] = true
			es = append(es, catalogue[r.entry])
		}
	}
	for _, e := range es {
		rep, err := tracedDeck(context.Background(), tr.tracer, e.deckText(".op model=a,b,1d"), deck.Options{})
		if err == nil {
			err = o.checkOp(rep, e.Name, 1, analyticModels)
		}
		if err != nil {
			return nil, err
		}
	}
	if err := timeCore(tr, es); err != nil {
		return nil, err
	}
	td, err := tr.data()
	if err != nil {
		return nil, err
	}
	td.report = append(td.report, serveSpans(td)...)
	res.metrics, res.report = layerMetrics(td)
	pct, iqr := overhead(ratios)
	setMetric(res.metrics, "trace.overhead_pct", pct)
	res.report = append(res.report, iqr)
	return res, nil
}

// serveSpans reports the handler span p50 per endpoint and the transport
// p50: a request's client-side http.request span minus the longest
// serve.<endpoint> span inside it. Requests that joined another's flight
// have no handler span of their own inside them and are skipped.
func serveSpans(t *traceData) []metric {
	var handlers []span
	var out []metric
	for _, ep := range []string{"solve", "deck"} {
		d := t.durations("serve." + ep)
		out = append(out, metric{"serve." + ep + ".handler_ms.p50", p50(d), "ms", len(d)})
	}
	for _, s := range t.spans {
		if s.Name == "serve.solve" || s.Name == "serve.deck" {
			handlers = append(handlers, s)
		}
	}
	sort.Slice(handlers, func(i, j int) bool { return handlers[i].StartNS < handlers[j].StartNS })
	var transport []float64
	for _, req := range t.spans {
		if req.Name != "http.request" {
			continue
		}
		i := sort.Search(len(handlers), func(i int) bool { return handlers[i].StartNS >= req.StartNS })
		var best int64 = -1
		for ; i < len(handlers) && handlers[i].StartNS <= req.end(); i++ {
			if h := handlers[i]; h.end() <= req.end() && h.DurNS > best {
				best = h.DurNS
			}
		}
		if best >= 0 {
			transport = append(transport, float64(req.DurNS-best)/1e6)
		}
	}
	return append(out, metric{"serve.transport_ms.p50", p50(transport), "ms", len(transport)})
}
