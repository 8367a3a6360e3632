package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"strconv"
	"strings"
)

// entry is one block geometry of the workload catalogue, taken from the
// paper's Fig. 4-7 studies. Lengths are in micrometres; P is the device
// power density in W/mm³ (interconnect heating is a tenth of it).
type entry struct {
	Name string
	R    float64 // via radius
	TL   float64 // liner thickness
	TD   float64 // ILD thickness
	TSi  float64 // upper-plane substrate thickness
	N    int     // via cluster count
	P    float64 // device power density
}

// catalogue lists every geometry the workloads draw from. The oracle holds
// an expected maxDT for each entry under each model and refinement used.
var catalogue = []entry{
	{"fig4-r5", 5, 0.5, 4, 5, 1, 700},
	{"fig4-r10", 10, 0.5, 4, 45, 1, 700},
	{"fig4-r15", 15, 0.5, 4, 45, 1, 700},
	{"fig4-r20", 20, 0.5, 4, 45, 1, 700},
	{"fig4-r10-p350", 10, 0.5, 4, 45, 1, 350},
	{"fig4-r10-p1400", 10, 0.5, 4, 45, 1, 1400},
	{"fig5-tl0.5", 5, 0.5, 7, 45, 1, 700},
	{"fig5-tl1", 5, 1, 7, 45, 1, 700},
	{"fig5-tl1.5", 5, 1.5, 7, 45, 1, 700},
	{"fig5-tl2", 5, 2, 7, 45, 1, 700},
	{"fig5-tl2.5", 5, 2.5, 7, 45, 1, 700},
	{"fig5-tl3", 5, 3, 7, 45, 1, 700},
	{"fig6-tsi10", 8, 1, 7, 10, 1, 700},
	{"fig6-tsi20", 8, 1, 7, 20, 1, 700},
	{"fig6-tsi45", 8, 1, 7, 45, 1, 700},
	{"fig6-tsi70", 8, 1, 7, 70, 1, 700},
	{"fig6-tsi100", 8, 1, 7, 100, 1, 700},
	{"fig7-n1", 10, 1, 4, 20, 1, 700},
	{"fig7-n2", 10, 1, 4, 20, 2, 700},
	{"fig7-n4", 10, 1, 4, 20, 4, 700},
	{"fig7-n8", 10, 1, 4, 20, 8, 700},
	{"fig7-n16", 10, 1, 4, 20, 16, 700},
	{"fig7-n4-p350", 10, 1, 4, 20, 4, 350},
	{"fig7-n4-p1400", 10, 1, 4, 20, 4, 1400},
}

// sweepBase is the Fig. 5 block the ref_sweep workload sweeps the liner of;
// sweepLiners is the liner grid (µm) its batches draw their points from.
var (
	sweepBase   = entry{"fig5-sweep", 5, 0.5, 7, 45, 1, 700}
	sweepLiners = linerGrid()
)

func linerGrid() []float64 {
	var v []float64
	for k := 0; k <= 20; k++ {
		v = append(v, 0.5+0.125*float64(k))
	}
	return v
}

// sweepPoint names the oracle entry of one ref_sweep point.
func sweepPoint(tl float64) string {
	return sweepBase.Name + "-tl" + num(tl)
}

// Model names as the text report prints them.
const (
	modelA   = "A"
	modelB   = "B(100)"
	model1D  = "1D"
	modelRef = "FVM"
)

var analyticModels = []string{modelA, modelB, model1D}

// num formats a number for a deck card.
func num(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// deckText renders the entry as a .ttsv deck ending in the given analysis
// card. Only geometry, power and model selection are spelled; every solver
// setting stays at its default.
func (e entry) deckText(analysis string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", e.Name)
	fmt.Fprintf(&b, "b1 side=100um sink=27\n")
	fmt.Fprintf(&b, "p1 tsi=500um td=%sum tdev=1um\n", num(e.TD))
	fmt.Fprintf(&b, "p2 tsi=%sum td=%sum tb=1um tdev=1um repeat=2\n", num(e.TSi), num(e.TD))
	fmt.Fprintf(&b, "v1 r=%sum tl=%sum lext=1um n=%d\n", num(e.R), num(e.TL), e.N)
	fmt.Fprintf(&b, "iall plane=all devd=%sw/mm3 ildd=%sw/mm3\n", num(e.P), num(e.P/10))
	fmt.Fprintf(&b, "%s\n.end\n", analysis)
	return b.String()
}

// solveBody renders the entry as a ttsvd /solve JSON body. Block fields
// left out keep the service's DefaultBlock values, which match the deck's.
func (e entry) solveBody(models string) []byte {
	const micro = 1e-6
	req := map[string]any{
		"block": map[string]any{
			"R":                  e.R * micro,
			"TL":                 e.TL * micro,
			"TD":                 e.TD * micro,
			"TSi":                e.TSi * micro,
			"ViaCount":           e.N,
			"DevicePowerDensity": e.P * 1e9,
			"ILDPowerDensity":    e.P / 10 * 1e9,
		},
		"models": map[string]any{"model": models},
	}
	body, err := json.Marshal(req)
	if err != nil {
		panic(err) // a map of numbers and strings always marshals
	}
	return body
}

// shuffled returns a seeded permutation of 0..n-1.
func shuffled(rng *rand.Rand, n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	rng.Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}
