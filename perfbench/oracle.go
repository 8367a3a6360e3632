package main

import (
	"bufio"
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"

	"repro/internal/deck"
	"repro/internal/obs"
)

// oracleJSON holds the expected maxDT of every catalogue entry × model ×
// refinement the workloads use, generated once with -write-oracle.
//
//go:embed oracle.json
var oracleJSON []byte

// oracle compares reported temperatures against the committed expectations.
// RelTol (2e-11) admits the last-digit differences a change of
// preconditioner, multigrid hierarchy or precision makes: at most 2e-12
// relative over every variant, geometry and refinement tried. It rejects
// the error a CG tolerance loosened from 1e-10 to 1e-6 leaves behind, which
// reaches 6e-11 to 1.4e-9 on every workload.
type oracle struct {
	RelTol float64            `json:"rel_tol"`
	Values map[string]float64 `json:"values"`
}

func loadOracle() (*oracle, error) {
	var o oracle
	if err := json.Unmarshal(oracleJSON, &o); err != nil {
		return nil, fmt.Errorf("oracle.json: %w", err)
	}
	if o.RelTol <= 0 || len(o.Values) == 0 {
		return nil, fmt.Errorf("oracle.json: empty or without rel_tol")
	}
	return &o, nil
}

func oracleKey(entry, model string, refine int) string {
	return fmt.Sprintf("%s/%s/r%d", entry, model, refine)
}

// check compares one reported maxDT with its expectation.
func (o *oracle) check(entry, model string, refine int, got float64) error {
	k := oracleKey(entry, model, refine)
	want, ok := o.Values[k]
	if !ok {
		return fmt.Errorf("oracle: no expected value for %s", k)
	}
	if d := math.Abs(got-want) / math.Abs(want); !(d <= o.RelTol) {
		return fmt.Errorf("oracle: %s maxDT=%v, want %v (relative error %.3g > %.3g)", k, got, want, d, o.RelTol)
	}
	return nil
}

// checkOp verifies every expected model line of an .op report.
func (o *oracle) checkOp(report []byte, entry string, refine int, models []string) error {
	got := parseOp(report)
	for _, m := range models {
		v, ok := got[m]
		if !ok {
			return fmt.Errorf("oracle: report for %s has no model %s", entry, m)
		}
		if err := o.check(entry, m, refine, v); err != nil {
			return err
		}
	}
	return nil
}

// parseOp reads the "model NAME: maxDT=V K" lines of an .op report.
func parseOp(report []byte) map[string]float64 {
	out := make(map[string]float64)
	sc := bufio.NewScanner(bytes.NewReader(report))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		name, rest, ok := strings.Cut(strings.TrimPrefix(line, "model "), ": maxDT=")
		if !ok || !strings.HasPrefix(line, "model ") {
			continue
		}
		num, _, _ := strings.Cut(rest, " ")
		if v, err := strconv.ParseFloat(num, 64); err == nil {
			out[name] = v
		}
	}
	return out
}

// parseSweep reads the per-value rows "PARAM=V dT: X..." of a one-model
// .sweep report, in report order.
func parseSweep(report []byte) []float64 {
	var out []float64
	sc := bufio.NewScanner(bytes.NewReader(report))
	for sc.Scan() {
		_, rest, ok := strings.Cut(sc.Text(), " dT: ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
		if err != nil {
			out = append(out, math.NaN())
			continue
		}
		out = append(out, v)
	}
	return out
}

// runDeck is the ttsvsolve -deck path: parse, lower, run, render. Each
// stage runs under a deck.<stage> span when ctx carries a tracer, so the
// spans the program emits nest under the stage that caused them.
func runDeck(ctx context.Context, text string, opt deck.Options) ([]byte, error) {
	var (
		d   *deck.Deck
		sc  *deck.Scenario
		res *deck.Result
		buf bytes.Buffer
	)
	err := stage(ctx, "deck.parse", func(context.Context) (err error) {
		d, err = deck.Parse("bench.ttsv", strings.NewReader(text))
		return err
	})
	if err == nil {
		err = stage(ctx, "deck.lower", func(context.Context) (err error) {
			sc, err = d.Lower()
			return err
		})
	}
	if err == nil {
		err = stage(ctx, "deck.run", func(ctx context.Context) (err error) {
			res, err = deck.RunScenario(ctx, sc, opt)
			return err
		})
	}
	if err == nil {
		err = stage(ctx, "deck.render", func(context.Context) error { return res.WriteText(&buf) })
	}
	return buf.Bytes(), err
}

// stage runs fn under a span named name.
func stage(ctx context.Context, name string, fn func(context.Context) error) error {
	ctx, sp := obs.StartSpan(ctx, name)
	defer sp.End()
	return fn(ctx)
}

// writeOracle solves every key the workloads use through the deck path and
// writes the expectations to path.
func writeOracle(path string, relTol float64) error {
	ctx := context.Background()
	o := oracle{RelTol: relTol, Values: make(map[string]float64)}
	add := func(entry string, refine int, report []byte, models ...string) error {
		got := parseOp(report)
		for _, m := range models {
			v, ok := got[m]
			if !ok {
				return fmt.Errorf("%s: no model %s in report", entry, m)
			}
			o.Values[oracleKey(entry, m, refine)] = v
		}
		return nil
	}
	for _, e := range catalogue {
		for _, c := range []struct {
			card   string
			refine int
			models []string
		}{
			{".op model=a,b,1d", 1, analyticModels},
			{".op model=ref", 1, []string{modelRef}},
			{".op model=ref refine=2", 2, []string{modelRef}},
		} {
			rep, err := runDeck(ctx, e.deckText(c.card), deck.Options{})
			if err != nil {
				return fmt.Errorf("%s: %w", e.Name, err)
			}
			if err := add(e.Name, c.refine, rep, c.models...); err != nil {
				return err
			}
		}
	}
	rep, err := runDeck(ctx, sweepBase.deckText(sweepCard(sweepLiners)), deck.Options{})
	if err != nil {
		return fmt.Errorf("%s: %w", sweepBase.Name, err)
	}
	rows := parseSweep(rep)
	if len(rows) != len(sweepLiners) {
		return fmt.Errorf("%s: %d sweep rows, want %d", sweepBase.Name, len(rows), len(sweepLiners))
	}
	for i, tl := range sweepLiners {
		o.Values[oracleKey(sweepPoint(tl), modelRef, 2)] = rows[i]
	}
	data, err := json.MarshalIndent(o, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// sweepCard is the ref_sweep analysis card over the given liners (µm).
func sweepCard(liners []float64) string {
	parts := make([]string, len(liners))
	for i, v := range liners {
		parts[i] = num(v) + "um"
	}
	return ".sweep tl list " + strings.Join(parts, " ") + " model=ref refine=2"
}
