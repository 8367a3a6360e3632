package main

import (
	"bytes"
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/deck"
	"repro/internal/obs"
)

// perLayer lists the metrics of a traced result line, in order;
// BENCHMARK.json's per_layer names the same set. Every traced run reports
// each of them: a count or ratio of a layer the workload does not reach
// reads 0. Timings that some workload never records (numeric refill,
// hierarchy build and per-level cycle time, sweep job and serve handler
// percentiles, the open-loop generator) are printed as report lines
// instead.
var perLayer = []struct{ name, unit string }{
	{"deck.parse_us", "us"}, {"deck.lower_us", "us"}, {"deck.render_us", "us"},
	{"fem.assemble_ms", "ms"}, {"fem.assemble.symbolic_ms", "ms"}, {"fem.precond_ms", "ms"}, {"fem.solve.self_ms", "ms"},
	{"fem.pattern.hit_ratio", "ratio"}, {"fem.mg.reuse.hit_ratio", "ratio"},
	{"mg.builds_per_solve", "count"}, {"mg.rebuilds_per_solve", "count"}, {"mg.levels", "count"}, {"mg.cycles_per_solve", "count"},
	{"sparse.cg.iterations_per_solve", "count"}, {"sparse.cg_ms", "ms"}, {"sparse.cg.residual_max", "1"}, {"sparse.precond.mg_share", "ratio"},
	{"sweep.busy_ratio", "ratio"}, {"sweep.parallel_speedup", "ratio"},
	{"core.model_a_us", "us"}, {"core.model_b_us", "us"}, {"core.model_1d_us", "us"},
	{"serve.coalesced_ratio", "ratio"}, {"serve.pool.hit_ratio", "ratio"}, {"serve.rejected", "count"}, {"serve.errors", "count"},
	{"runtime.gc_cycles_per_op", "count"}, {"runtime.gc_pause_ms_per_op", "ms"}, {"runtime.heap_peak_mb", "MB"},
	{"trace.overhead_pct", "%"},
}

// traceRun is one traced measurement: an in-memory NDJSON tracer, a fresh
// registry that is the process default only while traced work runs, and
// the runtime counters of those stretches.
type traceRun struct {
	buf    bytes.Buffer
	tracer *obs.Tracer
	reg    *obs.Registry
	idle   *obs.Registry // the default registry while untraced work runs
	mark   gcState
	heap   *heapSampler

	ops  int     // traced ops, set by endWindow
	gc   gcState // summed over the traced stretches
	peak uint64  // set by endWindow
	snap obs.Snapshot

	// Set by workload-specific measurements after the window.
	speedup float64
	report  []metric
}

func startTrace() *traceRun {
	t := &traceRun{reg: obs.NewRegistry(), idle: obs.Default()}
	t.tracer = obs.NewTracer(&t.buf)
	t.heap = startHeapSampler(5 * time.Millisecond)
	return t
}

// on starts a traced stretch: the trace registry becomes the process
// default, so the solver's counters land in it.
func (t *traceRun) on() {
	obs.SetDefault(t.reg)
	t.mark = readGC()
}

// off ends a traced stretch and adds its collector work to the window.
func (t *traceRun) off() {
	g := readGC()
	t.gc.cycles += g.cycles - t.mark.cycles
	t.gc.pauseNS += g.pauseNS - t.mark.pauseNS
	obs.SetDefault(t.idle)
}

// endWindow closes the window after ops traced ops: it freezes the
// registry and the heap peak. Spans recorded afterwards (the benchmark's
// own timings) still reach the fold.
func (t *traceRun) endWindow(ops int) {
	t.ops = ops
	t.peak = t.heap.Stop()
	t.snap = t.reg.Snapshot()
}

// traceData is a finished traced window, folded.
type traceData struct {
	*traceRun
	spans []span
	f     map[string]*foldStat
}

func (t *traceRun) data() (*traceData, error) {
	if err := t.tracer.Err(); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	spans, err := parseSpans(t.buf.Bytes())
	if err != nil {
		return nil, err
	}
	return &traceData{traceRun: t, spans: spans, f: fold(spans)}, nil
}

func (t *traceData) stat(name string) foldStat {
	if s := t.f[name]; s != nil {
		return *s
	}
	return foldStat{}
}

// durations returns the raw durations (ms) of every span named name.
func (t *traceData) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.DurNS)/1e6)
		}
	}
	return out
}

// attrs returns a numeric attribute of every span named name.
func (t *traceData) attrs(name, key string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if v, ok := s.Attrs[key].(float64); s.Name == name && ok {
			out = append(out, v)
		}
	}
	return out
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func sum(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s
}

// p50 is the median, 0 for no samples.
func p50(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return median(v)
}

// layerMetrics folds a traced window into the per-layer result metrics
// (in perLayer order, trace.overhead_pct still 0) and report lines.
func layerMetrics(t *traceData) (out, report []metric) {
	c := func(name string) float64 { return float64(t.snap.Counters[name]) }
	solves := t.stat("fem.solve").Count
	perSolveMS := func(name string) float64 { return ratio(float64(t.stat(name).TotalNS)/1e6, float64(solves)) }
	meanUS := func(name string) float64 {
		s := t.stat(name)
		return ratio(float64(s.TotalNS)/1e3, float64(s.Count))
	}
	cg := t.stat("sparse.cg")
	iters := t.attrs("sparse.cg", "iterations")
	resid := t.attrs("sparse.cg", "residual")
	residMax := 0.0
	if len(resid) > 0 {
		residMax = maxOf(resid)
	}
	var jobNS, runCapNS float64
	for _, s := range t.spans {
		switch s.Name {
		case "sweep.job":
			jobNS += float64(s.DurNS)
		case "sweep.run":
			w, _ := s.Attrs["workers"].(float64)
			runCapNS += w * float64(s.DurNS)
		}
	}
	reqs := c("serve.solve.requests") + c("serve.deck.requests")
	ops := float64(max(t.ops, 1))
	v := map[string]float64{
		"deck.parse_us":                  meanUS("deck.parse"),
		"deck.lower_us":                  meanUS("deck.lower"),
		"deck.render_us":                 meanUS("deck.render"),
		"fem.assemble_ms":                perSolveMS("fem.assemble"),
		"fem.assemble.symbolic_ms":       perSolveMS("fem.assemble.symbolic"),
		"fem.precond_ms":                 perSolveMS("fem.precond"),
		"fem.solve.self_ms":              ratio(float64(t.stat("fem.solve").SelfNS)/1e6, float64(solves)),
		"fem.pattern.hit_ratio":          ratio(c("fem.assemble.pattern.hits"), c("fem.assemble.pattern.hits")+c("fem.assemble.pattern.misses")),
		"fem.mg.reuse.hit_ratio":         ratio(c("fem.mg.reuse.hits"), c("fem.mg.reuse.hits")+c("fem.mg.reuse.rebuilds")),
		"mg.builds_per_solve":            ratio(c("mg.builds"), float64(solves)),
		"mg.rebuilds_per_solve":          ratio(c("mg.rebuilds.recycled"), float64(solves)),
		"mg.levels":                      t.snap.Gauges["mg.levels"],
		"mg.cycles_per_solve":            ratio(c("mg.cycles"), float64(solves)),
		"sparse.cg.iterations_per_solve": ratio(sum(iters), float64(len(iters))),
		"sparse.cg_ms":                   ratio(float64(cg.TotalNS)/1e6, float64(cg.Count)),
		"sparse.cg.residual_max":         residMax,
		"sparse.precond.mg_share":        ratio(c("sparse.cg.precond.multigrid"), c("sparse.cg.solves")),
		"sweep.busy_ratio":               ratio(jobNS, runCapNS),
		"sweep.parallel_speedup":         t.speedup,
		"core.model_a_us":                p50(t.durations("core."+modelA)) * 1e3,
		"core.model_b_us":                p50(t.durations("core."+modelB)) * 1e3,
		"core.model_1d_us":               p50(t.durations("core."+model1D)) * 1e3,
		"serve.coalesced_ratio":          ratio(c("serve.coalesced"), reqs),
		"serve.pool.hit_ratio":           ratio(c("serve.pool.hits"), c("serve.pool.hits")+c("serve.pool.misses")),
		"serve.rejected":                 c("serve.rejected"),
		"serve.errors":                   c("serve.errors"),
		"runtime.gc_cycles_per_op":       float64(t.gc.cycles) / ops,
		"runtime.gc_pause_ms_per_op":     float64(t.gc.pauseNS) / 1e6 / ops,
		"runtime.heap_peak_mb":           float64(t.peak) / 1e6,
	}
	for _, m := range perLayer {
		out = append(out, metric{m.name, v[m.name], m.unit, 0})
	}

	// Report-only timings.
	report = append(report, metric{"fem.assemble.numeric_ms", perSolveMS("fem.assemble.numeric"), "ms", solves})
	builds := t.snap.Histograms["mg.build.seconds"]
	report = append(report, metric{"mg.build_ms", ratio(builds.Sum*1e3, float64(builds.Count)), "ms", int(builds.Count)})
	for k := 0; ; k++ {
		h, ok := t.snap.Histograms[fmt.Sprintf("mg.cycle.level%d.seconds", k)]
		if !ok {
			break
		}
		report = append(report, metric{fmt.Sprintf("mg.cycle.level%d_ms", k), ratio(h.Sum*1e3, float64(solves)), "ms", solves})
	}
	if jobs := t.durations("sweep.job"); len(jobs) > 0 {
		report = append(report, metric{"sweep.job_ms.p50", median(jobs), "ms", len(jobs)})
	}
	report = append(report, t.report...)

	// The span fold itself, per traced op.
	for _, name := range sortedNames(t.f) {
		s := t.f[name]
		report = append(report,
			metric{"span." + name + ".total_ms_per_op", float64(s.TotalNS) / 1e6 / ops, "ms", s.Count},
			metric{"span." + name + ".self_ms_per_op", float64(s.SelfNS) / 1e6 / ops, "ms", s.Count})
	}
	return out, report
}

// setMetric overwrites a named metric's value.
func setMetric(ms []metric, name string, v float64) {
	for i := range ms {
		if ms[i].Name == name {
			ms[i].Value = v
		}
	}
}

// coreReps is how many times timeCore solves each stack with each model.
const coreReps = 5

// timeCore times the analytic models (Model A, Model B with 100 segments,
// the 1-D baseline) on the workload's geometries, under benchmark spans named
// core.<model>.
func timeCore(tr *traceRun, es []entry) error {
	root := tr.tracer.Start("bench.core")
	defer root.End()
	for _, e := range es {
		d, err := deck.Parse(e.Name, strings.NewReader(e.deckText(".op model=a,b,1d")))
		if err != nil {
			return err
		}
		sc, err := d.Lower()
		if err != nil {
			return err
		}
		for _, m := range sc.Analyses[0].Op.Models {
			for r := 0; r < coreReps; r++ {
				if err := timeModel(root, m, sc); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func timeModel(root *obs.Span, m core.Model, sc *deck.Scenario) error {
	sp := root.Child("core." + m.Name())
	defer sp.End()
	_, err := m.Solve(sc.Stack)
	return err
}
