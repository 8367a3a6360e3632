package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
)

// span is one NDJSON record of an obs.Tracer.
type span struct {
	Name    string         `json:"span"`
	ID      int64          `json:"id"`
	Parent  int64          `json:"parent"`
	StartNS int64          `json:"start_ns"`
	DurNS   int64          `json:"dur_ns"`
	Attrs   map[string]any `json:"attrs"`
}

func (s span) end() int64 { return s.StartNS + s.DurNS }

// parseSpans decodes an NDJSON trace.
func parseSpans(ndjson []byte) ([]span, error) {
	var out []span
	sc := bufio.NewScanner(bytes.NewReader(ndjson))
	sc.Buffer(make([]byte, 64*1024), 16*1024*1024)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			return nil, fmt.Errorf("trace line %d: %w", len(out)+1, err)
		}
		out = append(out, s)
	}
	return out, sc.Err()
}

// foldStat is the per-name aggregate of a trace: how many spans, their
// summed duration, and their summed self time.
type foldStat struct {
	Count   int
	TotalNS int64
	SelfNS  int64
}

// fold turns a span list into per-name total and self time. A span's self
// time is its duration minus the part of its interval its children cover;
// overlapping children (parallel sweep jobs, say) count once, and a child
// running past its parent is clipped to the parent.
func fold(spans []span) map[string]*foldStat {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]*foldStat)
	for _, s := range spans {
		st := out[s.Name]
		if st == nil {
			st = &foldStat{}
			out[s.Name] = st
		}
		st.Count++
		st.TotalNS += s.DurNS
		st.SelfNS += s.DurNS - covered(s, children[s.ID])
	}
	return out
}

// covered returns the length of the union of the children's intervals
// within the parent's interval.
func covered(parent span, kids []span) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.StartNS, parent.StartNS), min(k.end(), parent.end())
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, curLo, curHi int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curLo, curHi, open = v.lo, v.hi, true
		case v.lo <= curHi:
			curHi = max(curHi, v.hi)
		default:
			total += curHi - curLo
			curLo, curHi = v.lo, v.hi
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}
