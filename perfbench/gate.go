package main

import (
	"bufio"
	_ "embed"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"

	"elision/internal/harness"
)

// defaultSeed is the seed the pins in pins.txt were taken at.
const defaultSeed = 1

// pinsText pins the fingerprint of every round-0 job of every workload at
// defaultSeed, one "<workload> <job> <fingerprint>" line each. Regenerate
// with `go test -run TestPins -update` after a change that is meant to move
// simulated results.
//
//go:embed pins.txt
var pinsText string

// fingerprint digests everything a data-structure point computes: its
// simulated cycles, operations, attempts, aborts by cause, speculative and
// non-speculative completions, auxiliary-lock entries and forfeit counts.
func fingerprint(res harness.Result) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	s := res.Stats
	put(res.Cycles)
	put(s.Ops)
	put(s.Spec)
	put(s.NonSpec)
	put(s.Aborts)
	put(s.Attempts)
	put(s.AuxAcquires)
	for _, v := range s.ByCause {
		put(v)
	}
	put(s.ForfeitOps)
	put(s.ForfeitEntries)
	put(s.ForfeitExits)
	for _, v := range s.ExhaustedByClass {
		put(v)
	}
	return h.Sum64()
}

// panelFingerprint digests a diagnose-panel job: its Diagnosis JSON, which
// carries every point's verdict, aborts by class and throughput, and the
// rollup's text report, which carries the campaign's cycles, operations,
// commits and aborts by cause.
func panelFingerprint(pr panelResult) uint64 {
	h := fnv.New64a()
	js, err := json.Marshal(pr.d)
	if err != nil {
		// A Diagnosis is plain data; failing to encode it is a bug.
		panic(fmt.Sprintf("perfbench: encode diagnosis: %v", err))
	}
	h.Write(js)
	pr.ru.WriteText(h)
	return h.Sum64()
}

// gate is the correctness check behind failed_frac. A simulation fails
// when it panics, when its fingerprint differs from an earlier execution of
// the same job in the run, or, at the default seed, when a round-0 job's
// fingerprint differs from its pin or has none.
type gate struct {
	pins              map[string]uint64 // nil off the default seed
	attempted, failed int
	errs              []string
}

// newGate returns a gate; pinned arms the default-seed pins.
func newGate(pinned bool) (*gate, error) {
	g := &gate{}
	if !pinned {
		return g, nil
	}
	pins, err := parsePins(pinsText)
	if err != nil {
		return nil, err
	}
	g.pins = pins
	return g, nil
}

// parsePins reads pins.txt.
func parsePins(text string) (map[string]uint64, error) {
	pins := map[string]uint64{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 3 {
			return nil, fmt.Errorf("pins.txt:%d: want <workload> <job> <fingerprint>, got %q", n, line)
		}
		fp, err := strconv.ParseUint(f[2], 16, 64)
		if err != nil {
			return nil, fmt.Errorf("pins.txt:%d: %v", n, err)
		}
		pins[f[0]+"/"+f[1]] = fp
	}
	return pins, sc.Err()
}

// check gates one executed job and counts its simulations. want, when
// non-nil, is the fingerprint an earlier execution of the job produced.
func (g *gate) check(workload string, j job, o outcome, want *uint64) {
	g.attempted += o.sims
	key := workload + "/" + j.id()
	var bad string
	if o.err != nil {
		bad = o.err.Error()
	} else if want != nil && *want != o.fp {
		bad = fmt.Sprintf("fingerprint %016x did not repeat (first %016x)", o.fp, *want)
	} else if g.pins != nil && j.round == 0 {
		if pin, ok := g.pins[key]; !ok {
			bad = "no pin at the default seed"
		} else if pin != o.fp {
			bad = fmt.Sprintf("fingerprint %016x differs from pin %016x", o.fp, pin)
		}
	}
	if bad != "" {
		g.fail(o.sims, key+": "+bad)
	}
}

// fail counts sims failed simulations with a reason.
func (g *gate) fail(sims int, why string) {
	g.failed += sims
	if len(g.errs) < 10 {
		g.errs = append(g.errs, why)
	}
}

// failedFrac is failed simulations over attempted ones.
func (g *gate) failedFrac() float64 {
	if g.attempted == 0 {
		return 0
	}
	return float64(g.failed) / float64(g.attempted)
}
