package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/deck"
	"repro/internal/obs"
)

// setupReps is how many times a run sets up, back to back before its first
// timed op; setup_s is the median of the repetitions.
const setupReps = 15

// timeSetup runs set-up setupReps times and returns each duration in
// seconds. Each repetition starts from a collected heap, as in a fresh
// process, so no collection of an earlier repetition's garbage lands in
// it. The last repetition's inputs are the ones the run uses; undo, when
// set, releases each earlier one, untimed.
func timeSetup(setup, undo func() error) ([]float64, error) {
	var reps []float64
	for i := 0; i < setupReps; i++ {
		if i > 0 && undo != nil {
			if err := undo(); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		t0 := time.Now()
		if err := setup(); err != nil {
			return nil, err
		}
		reps = append(reps, time.Since(t0).Seconds())
	}
	return reps, nil
}

// preflight parses and lowers every deck once, as a user checks a batch of
// inputs before solving it. It is the program's share of set-up.
func preflight(texts []string) error {
	for _, text := range texts {
		d, err := deck.Parse("bench.ttsv", strings.NewReader(text))
		if err != nil {
			return err
		}
		if _, err := d.Lower(); err != nil {
			return err
		}
	}
	return nil
}

// opFunc runs op number i and reports how many ops it attempted and how
// many of those failed. A closed-loop sample is one call.
type opFunc func(i int) (attempted, failed int, err error)

// loopOut is one measured window of a closed loop.
type loopOut struct {
	attempted, failed int
	lat               []float64 // ms per call
	wall, cpu         time.Duration
	alloc             uint64
	errs              []string
}

// closedLoop calls op back to back, one client, until d has elapsed.
func closedLoop(d time.Duration, op opFunc) loopOut {
	var out loopOut
	u0 := readUsage()
	for i := 0; time.Since(u0.at) < d; i++ {
		lat, a, f, err := timeOp(op, i)
		out.add(lat, a, f, err)
	}
	u1 := readUsage()
	out.wall = u1.at.Sub(u0.at)
	out.cpu = u1.cpu - u0.cpu
	out.alloc = u1.alloc - u0.alloc
	return out
}

// timeOp runs op i and returns its latency in ms.
func timeOp(op opFunc, i int) (lat float64, attempted, failed int, err error) {
	t := time.Now()
	attempted, failed, err = op(i)
	return ms(time.Since(t)), attempted, failed, err
}

func (l *loopOut) add(lat float64, attempted, failed int, err error) {
	l.lat = append(l.lat, lat)
	l.attempted += attempted
	l.failed += failed
	if err != nil && len(l.errs) < 5 {
		l.errs = append(l.errs, err.Error())
	}
}

// tracedPairs runs each op twice, untraced and traced, until d has
// elapsed; which of the two goes first alternates from op to op, so a
// drift in host speed or a warm cache favours neither. It returns both
// sides and the traced/untraced latency ratio of each pair.
func tracedPairs(d time.Duration, tr *traceRun, mk func(*obs.Tracer) opFunc) (base, traced loopOut, ratios []float64) {
	plain, withTrace := mk(nil), mk(tr.tracer)
	t0 := time.Now()
	for i := 0; time.Since(t0) < d; i++ {
		var lat [2]float64
		for k := 0; k < 2; k++ {
			if (i+k)%2 == 0 {
				l, a, f, err := timeOp(plain, i)
				base.add(l, a, f, err)
				lat[0] = l
				continue
			}
			tr.on()
			l, a, f, err := timeOp(withTrace, i)
			tr.off()
			traced.add(l, a, f, err)
			lat[1] = l
		}
		ratios = append(ratios, lat[1]/lat[0])
	}
	return base, traced, ratios
}

// overhead reports the tracing cost from paired traced/untraced ratios:
// the median, as trace.overhead_pct, and the interquartile range.
func overhead(ratios []float64) (pct float64, iqr metric) {
	pct = (median(ratios) - 1) * 100
	iqr = metric{"trace.overhead_pct.iqr", (quantile(ratios, 0.75) - quantile(ratios, 0.25)) * 100, "%", len(ratios)}
	return pct, iqr
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// endToEnd assembles the result of an untraced run. lat holds one raw
// sample per op (per batch on ref_sweep); ok ops count towards throughput,
// attempted ops divide CPU and allocation.
func endToEnd(setup, lat []float64, attempted, failed int, wall, cpu time.Duration, alloc uint64) *result {
	ok := attempted - failed
	per := float64(max(attempted, 1))
	res := &result{
		attempted: attempted,
		failed:    failed,
		metrics: []metric{
			{"setup_s", median(setup), "s", len(setup)},
			{"throughput_ops_s", float64(ok) / wall.Seconds(), "1/s", ok},
			{"latency_ms.p50", median(lat), "ms", len(lat)},
			{"cpu_ms_per_op", ms(cpu) / per, "ms", attempted},
			{"alloc_mb_per_op", float64(alloc) / 1e6 / per, "MB", attempted},
		},
	}
	res.report = append(res.report, tails("latency_ms", lat)...)
	res.report = append(res.report, metric{"fail_ratio", float64(failed) / per, "ratio", attempted})
	return res
}

// tails returns the p90 and p99 of samples, each only when at least ten
// samples lie beyond it.
func tails(prefix string, samples []float64) []metric {
	var out []metric
	for _, q := range []struct {
		name string
		q    float64
	}{{".p90", 0.90}, {".p99", 0.99}} {
		if tailOK(samples, q.q) {
			out = append(out, metric{prefix + q.name, quantile(samples, q.q), "ms", len(samples)})
		}
	}
	return out
}

// runClosed measures a closed-loop workload: end-to-end metrics untraced,
// or, with cfg.trace, paired untraced and traced runs of each op folded
// into per-layer metrics. setup is the workload's set-up, mk builds the op
// for a tracer (nil = untraced); after, when set, runs extra traced
// measurements.
func runClosed(cfg config, setup func() error, mk func(*obs.Tracer) opFunc, after func(*traceRun) error) (*result, error) {
	reps, err := timeSetup(setup, nil)
	if err != nil {
		return nil, err
	}
	if !cfg.trace {
		l := closedLoop(cfg.dur(1), mk(nil))
		res := endToEnd(reps, l.lat, l.attempted, l.failed, l.wall, l.cpu, l.alloc)
		res.errs = l.errs
		return res, nil
	}
	tr := startTrace()
	base, traced, ratios := tracedPairs(cfg.dur(0.9), tr, mk)
	tr.endWindow(traced.attempted)
	if after != nil {
		if err := after(tr); err != nil {
			return nil, err
		}
	}
	td, err := tr.data()
	if err != nil {
		return nil, err
	}
	res := &result{attempted: base.attempted + traced.attempted, failed: base.failed + traced.failed}
	res.errs = append(base.errs, traced.errs...)
	res.metrics, res.report = layerMetrics(td)
	pct, iqr := overhead(ratios)
	setMetric(res.metrics, "trace.overhead_pct", pct)
	// The solver's spans per closed-loop sample against that sample's
	// median latency: on ref_fresh, how much of an op the solver is.
	var solverNS int64
	for _, name := range []string{"fem.assemble", "fem.precond", "sparse.cg"} {
		solverNS += td.stat(name).TotalNS
	}
	res.report = append(res.report, iqr,
		metric{"untraced.latency_ms.p50", median(base.lat), "ms", len(base.lat)},
		metric{"traced.latency_ms.p50", median(traced.lat), "ms", len(traced.lat)},
		metric{"solver_share_of_latency.p50", float64(solverNS) / 1e6 / float64(len(traced.lat)) / median(traced.lat), "ratio", len(traced.lat)})
	return res, nil
}

// tracedDeck is runDeck under benchmark spans: bench.op around the whole op
// and deck.parse/lower/run/render around each stage, so the spans the
// program emits nest under them.
func tracedDeck(ctx context.Context, tr *obs.Tracer, text string, opt deck.Options) ([]byte, error) {
	ctx = obs.ContextWithTracer(ctx, tr)
	ctx, sp := obs.StartSpan(ctx, "bench.op")
	defer sp.End()
	return runDeck(ctx, text, opt)
}

// freshOp is one ref_fresh op: a 2×-refined reference deck of one entry.
type freshOp struct {
	e    entry
	text string
}

// genFresh draws n ops as successive seeded permutations of the catalogue,
// so every run solves the same mix of geometries in a different order.
func genFresh(seed uint64, n int) []freshOp {
	rng := rand.New(rand.NewPCG(seed, 0x5eed))
	ops := make([]freshOp, 0, n)
	for len(ops) < n {
		for _, i := range shuffled(rng, len(catalogue)) {
			e := catalogue[i]
			ops = append(ops, freshOp{e, e.deckText(".op model=ref refine=2")})
		}
	}
	return ops[:n]
}

func runRefFresh(cfg config, o *oracle) (*result, error) {
	var ops []freshOp
	setup := func() error {
		ops = genFresh(cfg.seed, int(cfg.seconds*30)+1)
		texts := make([]string, len(ops))
		for i, p := range ops {
			texts[i] = p.text
		}
		return preflight(texts)
	}
	mk := func(tr *obs.Tracer) opFunc {
		return func(i int) (int, int, error) {
			p := ops[i%len(ops)]
			rep, err := tracedDeck(context.Background(), tr, p.text, deck.Options{Trace: tr})
			if err == nil {
				err = o.checkOp(rep, p.e.Name, 2, []string{modelRef})
			}
			if err != nil {
				return 1, 1, err
			}
			return 1, 0, nil
		}
	}
	return runClosed(cfg, setup, mk, func(tr *traceRun) error {
		return timeCore(tr, catalogue)
	})
}

// sweepPoints is the ref_sweep batch length: a multiple of twice the
// engine's warm chain (8), so both workers of a 2-CPU host stay busy.
const sweepPoints = 16

// sweepOp is one ref_sweep batch: a .sweep deck over sorted liners.
type sweepOp struct {
	liners []float64
	text   string
}

func genSweep(seed uint64, n int) []sweepOp {
	rng := rand.New(rand.NewPCG(seed, 0x5eed))
	ops := make([]sweepOp, n)
	for b := range ops {
		var v []float64
		for _, i := range shuffled(rng, len(sweepLiners))[:sweepPoints] {
			v = append(v, sweepLiners[i])
		}
		sort.Float64s(v)
		ops[b] = sweepOp{v, sweepBase.deckText(sweepCard(v))}
	}
	return ops
}

// sweepOnce runs one batch and checks each point; a failed run fails every
// point of the batch.
func sweepOnce(o *oracle, tr *obs.Tracer, p sweepOp, workers int) (int, int, error) {
	rep, err := tracedDeck(context.Background(), tr, p.text, deck.Options{Trace: tr, Workers: workers})
	if err != nil {
		return len(p.liners), len(p.liners), err
	}
	rows := parseSweep(rep)
	if len(rows) != len(p.liners) {
		return len(p.liners), len(p.liners), fmt.Errorf("sweep report has %d rows, want %d", len(rows), len(p.liners))
	}
	failed := 0
	var first error
	for i, tl := range p.liners {
		if err := o.check(sweepPoint(tl), modelRef, 2, rows[i]); err != nil {
			failed++
			if first == nil {
				first = err
			}
		}
	}
	return len(p.liners), failed, first
}

func runRefSweep(cfg config, o *oracle) (*result, error) {
	var ops []sweepOp
	setup := func() error {
		ops = genSweep(cfg.seed, int(cfg.seconds*2)+1)
		texts := make([]string, len(ops))
		for i, p := range ops {
			texts[i] = p.text
		}
		return preflight(texts)
	}
	mk := func(tr *obs.Tracer) opFunc {
		return func(i int) (int, int, error) { return sweepOnce(o, tr, ops[i%len(ops)], 0) }
	}
	return runClosed(cfg, setup, mk, func(tr *traceRun) error {
		// The same batch at one worker and at GOMAXPROCS workers, untraced.
		var wall [2]time.Duration
		for k, workers := range []int{1, 0} {
			t0 := time.Now()
			if _, failed, err := sweepOnce(o, nil, ops[0], workers); err != nil || failed > 0 {
				return fmt.Errorf("speedup batch: %d failed: %v", failed, err)
			}
			wall[k] = time.Since(t0)
		}
		tr.speedup = wall[0].Seconds() / wall[1].Seconds()
		var es []entry
		for _, tl := range ops[0].liners {
			e := sweepBase
			e.TL = tl
			es = append(es, e)
		}
		return timeCore(tr, es)
	})
}
