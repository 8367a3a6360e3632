package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/deck"
)

func TestFoldSelfTime(t *testing.T) {
	spans := []span{
		{Name: "root", ID: 1, StartNS: 0, DurNS: 100},
		{Name: "job", ID: 2, Parent: 1, StartNS: 10, DurNS: 30},  // [10,40]
		{Name: "job", ID: 3, Parent: 1, StartNS: 30, DurNS: 30},  // [30,60], overlaps the first job
		{Name: "tail", ID: 4, Parent: 1, StartNS: 90, DurNS: 30}, // [90,120], clipped to [90,100]
		{Name: "leaf", ID: 5, Parent: 2, StartNS: 15, DurNS: 10}, // [15,25] inside job 2
		{Name: "other", ID: 6, StartNS: 500, DurNS: 7},
	}
	f := fold(spans)
	want := map[string]foldStat{
		"root":  {Count: 1, TotalNS: 100, SelfNS: 100 - 50 - 10},
		"job":   {Count: 2, TotalNS: 60, SelfNS: (30 - 10) + 30},
		"tail":  {Count: 1, TotalNS: 30, SelfNS: 30},
		"leaf":  {Count: 1, TotalNS: 10, SelfNS: 10},
		"other": {Count: 1, TotalNS: 7, SelfNS: 7},
	}
	if len(f) != len(want) {
		t.Fatalf("fold has %d names, want %d", len(f), len(want))
	}
	for name, w := range want {
		if got := f[name]; got == nil || *got != w {
			t.Errorf("%s: got %+v, want %+v", name, got, w)
		}
	}
}

func TestParseSpansRoundTrip(t *testing.T) {
	in := `{"span":"sparse.cg","id":3,"parent":2,"start_ns":10,"dur_ns":5,"attrs":{"iterations":27}}
{"span":"fem.solve","id":2,"start_ns":8,"dur_ns":9}
`
	spans, err := parseSpans([]byte(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 2 || spans[0].Parent != 2 || spans[0].Attrs["iterations"] != 27.0 || spans[1].Parent != 0 {
		t.Fatalf("parsed %+v", spans)
	}
}

func TestQuantileRawSamples(t *testing.T) {
	s := []float64{5, 1, 4, 2, 3}
	if q := quantile(s, 0.5); q != 3 {
		t.Errorf("median = %v, want 3", q)
	}
	if q := quantile(s, 0.9); q != 4.6 {
		t.Errorf("p90 = %v, want 4.6", q)
	}
	var many []float64
	for i := 0; i < 100; i++ {
		many = append(many, float64(i))
	}
	if !tailOK(many, 0.9) || tailOK(many, 0.99) {
		t.Errorf("tailOK: p90 has %d beyond, p99 has %d", beyond(many, quantile(many, 0.9)), beyond(many, quantile(many, 0.99)))
	}
}

// TestOracleCatchesPerturbation runs a real ref_fresh op and checks it
// passes against the committed oracle and fails once its expected value
// moves by one part in a million.
func TestOracleCatchesPerturbation(t *testing.T) {
	o, err := loadOracle()
	if err != nil {
		t.Fatal(err)
	}
	e := catalogue[0]
	rep, err := runDeck(context.Background(), e.deckText(".op model=ref refine=2"), deck.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := o.checkOp(rep, e.Name, 2, []string{modelRef}); err != nil {
		t.Fatalf("unperturbed oracle: %v", err)
	}
	bad := &oracle{RelTol: o.RelTol, Values: make(map[string]float64)}
	for k, v := range o.Values {
		bad.Values[k] = v
	}
	k := oracleKey(e.Name, modelRef, 2)
	bad.Values[k] *= 1 + 1e-6
	if err := bad.checkOp(rep, e.Name, 2, []string{modelRef}); err == nil {
		t.Fatalf("oracle with %s perturbed by 1e-6 accepted the report", k)
	}
	if err := o.checkOp([]byte("title: x\n"), e.Name, 2, []string{modelRef}); err == nil {
		t.Fatal("a report without the model line passed")
	}
}

// solverKnobs are the solver settings no generated input may spell: the
// benchmark measures the defaults a user gets.
var solverKnobs = []string{"precond", "operator", "mg.", "mg_", "ref_workers"}

func TestInputsSpellNoSolverKnob(t *testing.T) {
	var inputs []string
	for _, op := range genFresh(1, 2*len(catalogue)) {
		inputs = append(inputs, op.text)
	}
	for _, op := range genSweep(1, 4) {
		inputs = append(inputs, op.text)
	}
	in := genMix(1, 0, ladderRates, ladderSeconds)
	for _, r := range in.reqs {
		_, _, body := in.request(r)
		inputs = append(inputs, string(body))
	}
	for _, s := range inputs {
		for _, k := range solverKnobs {
			if strings.Contains(strings.ToLower(s), k) {
				t.Fatalf("input spells solver knob %q:\n%s", k, s)
			}
		}
	}
}

// ladderSeconds is a step length long enough to draw every request kind.
const ladderSeconds = 2 * time.Second

// TestMixProportions checks the serve_mix schedule: kinds in the 16:2:2
// block proportions and each kind's keys in the hotspot share.
func TestMixProportions(t *testing.T) {
	in := genMix(1, 0, ladderRates, ladderSeconds)
	kinds := make(map[string]int)
	hot := make(map[string]int)
	for _, r := range in.reqs {
		kinds[r.kind]++
		if (r.kind == kindRef && r.entry == refKeys[0]) || (r.kind != kindRef && r.entry == hotKey) {
			hot[r.kind]++
		}
	}
	n := float64(len(in.reqs))
	for kind, want := range map[string]float64{kindAnalytic: 0.8, kindDeck: 0.1, kindRef: 0.1} {
		if got := float64(kinds[kind]) / n; math.Abs(got-want) > float64(len(mixBlock))/n {
			t.Errorf("%s share %.3f, want %.3f", kind, got, want)
		}
		if got := float64(hot[kind]) / float64(kinds[kind]); math.Abs(got-hotShare) > 0.1 {
			t.Errorf("%s hot-key share %.3f, want about %.2f", kind, got, hotShare)
		}
	}
}

// TestLadderBacklog checks the capacity rule on synthetic timelines: a
// server that answers each request 5 ms after it is due meets the limit,
// one whose completions fall further behind with every request does not.
func TestLadderBacklog(t *testing.T) {
	in := genMix(1, 0, []float64{200}, ladderSeconds)
	for _, tc := range []struct {
		name string
		lag  func(i int) time.Duration
		met  bool
	}{
		{"keeps up", func(int) time.Duration { return 5 * time.Millisecond }, true},
		{"falls behind", func(i int) time.Duration { return time.Duration(i) * 100 * time.Microsecond }, false},
	} {
		d := driveOut{recs: make([]record, len(in.reqs))}
		for i, r := range in.reqs {
			d.recs[i] = record{gen: r.due, sent: r.due, done: r.due + tc.lag(i)}
		}
		if _, met := d.ladder(in, 2); met != tc.met {
			t.Errorf("%s: met = %v, want %v", tc.name, met, tc.met)
		}
	}
}

// benchmarkSpec is the part of BENCHMARK.json the result lines must match.
type benchmarkSpec struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestSmoke runs every workload briefly, untraced and traced, and checks
// that nothing fails and each result line carries exactly the metrics
// BENCHMARK.json declares.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	o, err := loadOracle()
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, perfbench %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		run, ok := workloads[w.Name]
		if !ok {
			t.Fatalf("BENCHMARK.json workload %q is not in perfbench", w.Name)
		}
		for _, traced := range []bool{false, true} {
			res, err := run(config{seed: 7, seconds: 0.3, trace: traced}, o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, traced, err)
			}
			if res.attempted == 0 || res.failed != 0 {
				t.Fatalf("%s trace=%v: attempted %d, failed %d: %v", w.Name, traced, res.attempted, res.failed, res.errs)
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			if len(res.metrics) != len(want) {
				t.Fatalf("%s trace=%v: %d metrics, BENCHMARK.json declares %d", w.Name, traced, len(res.metrics), len(want))
			}
			for i, m := range res.metrics {
				if m.Name != want[i].Name || m.Unit != want[i].Unit {
					t.Errorf("%s trace=%v: metric %d is %s [%s], BENCHMARK.json says %s [%s]", w.Name, traced, i, m.Name, m.Unit, want[i].Name, want[i].Unit)
				}
			}
		}
	}
}
