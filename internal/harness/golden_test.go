package harness

// Golden seed-digest tests. Each figure regenerator is run at TestScale and
// its rendered CSV output hashed; the hex digests below pin the exact
// simulated results. Any change to simulator internals that perturbs a run
// by even one bit — a reordered conflict, a different abort cause, one
// extra cycle — changes a digest and fails here. Performance work on the
// scheduler, the HTM set representation, or the memory model must keep
// these digests bit-identical; only deliberate model changes may re-pin
// them (regenerate with -run TestGoldenFigureDigests -v and copy the
// printed digests).

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"elision/internal/core"
	"elision/internal/trace"
)

// digestTables hashes the CSV rendering of a table set. CSV is the
// canonical form: it contains every cell the text rendering does, without
// alignment padding.
func digestTables(tabs []Table) string {
	var sb strings.Builder
	for i := range tabs {
		tabs[i].RenderCSV(&sb)
	}
	sum := sha256.Sum256([]byte(sb.String()))
	return hex.EncodeToString(sum[:])
}

// goldenFigureDigests pins every figure's TestScale results.
var goldenFigureDigests = map[string]string{
	"figure2":   "7c5a7cc000de1429955a3d663d8d95046233476b84fbfe231fa3b6cb431eb571",
	"figure3":   "1af9d05c6f40f9f028a26ce89365efc437f9e0f8a03bac704758fff44c29ddb2",
	"figure4":   "ad78937362013dc8931cefd2992f293b49a768dda3577c657f0b16aede80d632",
	"figure9":   "f74e23a812b68c26140bae1e3bb8c0a97354f818043e0b396adb66577dfa7049",
	"figure10":  "2a1ef0c70c0b290c928bf88f94e642350537a61f006c0a515e8b6b81edb888ba",
	"figure11":  "86750485274679f0a5ddc4aa07eb9a96a211741de29744a19863a909aac02e01",
	"hashtable": "3d3ebf53041209825365387d7e747a85c9dbf27b5af1cd80c33f551bef5765e8",
}

func TestGoldenFigureDigests(t *testing.T) {
	sc := TestScale()
	r := NewRunner()
	figs := []struct {
		name string
		run  func(t *testing.T) []Table
	}{
		{"figure2", func(t *testing.T) []Table { return Figure2(r, sc) }},
		{"figure3", func(t *testing.T) []Table { return Figure3(r, sc) }},
		{"figure4", func(t *testing.T) []Table { return Figure4(r, sc) }},
		{"figure9", func(t *testing.T) []Table { return Figure9(r, sc) }},
		{"figure10", func(t *testing.T) []Table { return Figure10(r, sc) }},
		{"figure11", func(t *testing.T) []Table {
			tabs, err := Figure11(r, TestStampScale())
			if err != nil {
				t.Fatal(err)
			}
			return tabs
		}},
		{"hashtable", func(t *testing.T) []Table { return HashTableComparison(r, sc) }},
	}
	for _, f := range figs {
		f := f
		t.Run(f.name, func(t *testing.T) {
			got := digestTables(f.run(t))
			t.Logf("digest %s: %s", f.name, got)
			want, ok := goldenFigureDigests[f.name]
			if !ok {
				t.Fatalf("no golden digest entry for %s", f.name)
			}
			if got != want {
				t.Errorf("%s digest = %s, want %s\n"+
					"(simulated results changed; if the model change is deliberate, re-pin goldenFigureDigests)",
					f.name, got, want)
			}
		})
	}
}

// presetShapes are the two points every preset digest runs: a contended
// 8-thread tree under 100% updates, and the same point on the SMT model
// (two hardware threads per core).
var presetShapes = []struct {
	name  string
	cores int
}{
	{"contended", 0},
	{"smt", 4},
}

// presetVariant is one scheme configuration the preset digests pin.
type presetVariant struct {
	label  string
	scheme SchemeID
	acfg   string
	hwfix  bool
}

// presetVariants covers every factory scheme except the single-thread
// nolock baseline, plus a tuned adaptive config for both adaptive presets
// and lazysub under the hardware fix.
func presetVariants() []presetVariant {
	var vs []presetVariant
	for _, name := range core.SchemeNames() {
		if name == core.SchemeNameNoLock {
			continue
		}
		vs = append(vs, presetVariant{label: name, scheme: SchemeID(name)})
	}
	const tuned = "0/2,0/1,5/5,12/8"
	return append(vs,
		presetVariant{label: "adaptive-hle+" + tuned, scheme: SchemeAdaptiveHLE, acfg: tuned},
		presetVariant{label: "adaptive-slr+" + tuned, scheme: SchemeAdaptiveSLR, acfg: tuned},
		presetVariant{label: "lazysub+hwfix", scheme: SchemeLazySub, hwfix: true},
	)
}

// digestPresetRun hashes one traced run: its Stats, its cycle count and
// every event the tracer recorded, so a moved lock, aux-lock or abort event
// changes the digest even when the totals do not.
func digestPresetRun(cfg DSConfig) string {
	tr := trace.New(0)
	res := NewInstance(nil).RunObserved(cfg, nil, tr)
	h := sha256.New()
	fmt.Fprintf(h, "%+v\n%d\n", res.Stats, res.Cycles)
	for _, e := range tr.Events() {
		fmt.Fprintf(h, "%d %d %d %d\n", e.When, e.Proc, e.Kind, e.Arg)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// goldenPresetDigests pins every scheme preset over every lock at both
// presetShapes. A failing TestGoldenPresetDigests logs the current map; copy
// it here only for a deliberate model change.
var goldenPresetDigests = map[string]string{
	"standard/ttas/contended":                              "1aee0f8a1e15f203",
	"standard/ttas/smt":                                    "f1f73d50cc9d6207",
	"standard/ttas-backoff/contended":                      "d9b939ea020c2750",
	"standard/ttas-backoff/smt":                            "2fa7ab8a6743522c",
	"standard/mcs/contended":                               "7a7920dc8e96cc33",
	"standard/mcs/smt":                                     "bf99d9b3319c3f19",
	"standard/ticket-hle/contended":                        "8420f7bb569d1216",
	"standard/ticket-hle/smt":                              "d32ad7c55d8c4b97",
	"standard/clh-hle/contended":                           "777db29e222c8334",
	"standard/clh-hle/smt":                                 "4301d647150cf07e",
	"hle/ttas/contended":                                   "bd23825e648eec59",
	"hle/ttas/smt":                                         "1da4a1d8135f300f",
	"hle/ttas-backoff/contended":                           "bd23825e648eec59",
	"hle/ttas-backoff/smt":                                 "1da4a1d8135f300f",
	"hle/mcs/contended":                                    "3f5c455d3e6d08bd",
	"hle/mcs/smt":                                          "177d0b6e50b25bf3",
	"hle/ticket-hle/contended":                             "7b030b33b551cad7",
	"hle/ticket-hle/smt":                                   "308511bad09d2b57",
	"hle/clh-hle/contended":                                "b37646a728bd45a5",
	"hle/clh-hle/smt":                                      "170ec75c62e4f0ed",
	"hle-retries/ttas/contended":                           "443ba21c6f799c4b",
	"hle-retries/ttas/smt":                                 "10e87ef58eb800ae",
	"hle-retries/ttas-backoff/contended":                   "2806f8073d60dd5c",
	"hle-retries/ttas-backoff/smt":                         "d83dee3a90730331",
	"hle-retries/mcs/contended":                            "40154056bb33aa10",
	"hle-retries/mcs/smt":                                  "481a0ae4de16f750",
	"hle-retries/ticket-hle/contended":                     "d6a27d077f8501e8",
	"hle-retries/ticket-hle/smt":                           "75019b0a3ca1be9f",
	"hle-retries/clh-hle/contended":                        "bd295f729dbb27bf",
	"hle-retries/clh-hle/smt":                              "48f955d0f55d6d04",
	"hle-scm/ttas/contended":                               "215a2b69b127e23c",
	"hle-scm/ttas/smt":                                     "81a915aab2898a1a",
	"hle-scm/ttas-backoff/contended":                       "215a2b69b127e23c",
	"hle-scm/ttas-backoff/smt":                             "81a915aab2898a1a",
	"hle-scm/mcs/contended":                                "215a2b69b127e23c",
	"hle-scm/mcs/smt":                                      "81a915aab2898a1a",
	"hle-scm/ticket-hle/contended":                         "7fcd06a32d4714ea",
	"hle-scm/ticket-hle/smt":                               "8e27b43615388675",
	"hle-scm/clh-hle/contended":                            "ae8df86b7d32de4d",
	"hle-scm/clh-hle/smt":                                  "63ea4eb919eb494d",
	"opt-slr/ttas/contended":                               "f9380d3522073f65",
	"opt-slr/ttas/smt":                                     "125d38ba39a94aa0",
	"opt-slr/ttas-backoff/contended":                       "6006fc1cb9524690",
	"opt-slr/ttas-backoff/smt":                             "77691c214eb6eb7f",
	"opt-slr/mcs/contended":                                "31b015421e4d9472",
	"opt-slr/mcs/smt":                                      "dbb88f0ae9b65733",
	"opt-slr/ticket-hle/contended":                         "0e078f67e70b2a90",
	"opt-slr/ticket-hle/smt":                               "12231f33e0b59109",
	"opt-slr/clh-hle/contended":                            "16eee0bd214b788e",
	"opt-slr/clh-hle/smt":                                  "39d156d7e8fe087d",
	"slr-scm/ttas/contended":                               "074c71a915605efb",
	"slr-scm/ttas/smt":                                     "56567f2074a42d88",
	"slr-scm/ttas-backoff/contended":                       "074c71a915605efb",
	"slr-scm/ttas-backoff/smt":                             "56567f2074a42d88",
	"slr-scm/mcs/contended":                                "074c71a915605efb",
	"slr-scm/mcs/smt":                                      "f7af57ce96519eb4",
	"slr-scm/ticket-hle/contended":                         "5ac64e917bb336e1",
	"slr-scm/ticket-hle/smt":                               "293d57523648ee18",
	"slr-scm/clh-hle/contended":                            "855ccdf6277b3a40",
	"slr-scm/clh-hle/smt":                                  "a8996b6391816423",
	"hle-scm-grouped/ttas/contended":                       "5a5adc9bb1c49aec",
	"hle-scm-grouped/ttas/smt":                             "a90e1914a136e4ac",
	"hle-scm-grouped/ttas-backoff/contended":               "5a5adc9bb1c49aec",
	"hle-scm-grouped/ttas-backoff/smt":                     "a90e1914a136e4ac",
	"hle-scm-grouped/mcs/contended":                        "36ea4f7e044e07f5",
	"hle-scm-grouped/mcs/smt":                              "f74bb315b08d86c2",
	"hle-scm-grouped/ticket-hle/contended":                 "7a35408c2e382925",
	"hle-scm-grouped/ticket-hle/smt":                       "4dcdb7e013dec717",
	"hle-scm-grouped/clh-hle/contended":                    "9420aff4bb87dc63",
	"hle-scm-grouped/clh-hle/smt":                          "f81c05a1d2c82a68",
	"slr-scm-grouped/ttas/contended":                       "736b1ca268a505a1",
	"slr-scm-grouped/ttas/smt":                             "8c30f74ee99d033e",
	"slr-scm-grouped/ttas-backoff/contended":               "736b1ca268a505a1",
	"slr-scm-grouped/ttas-backoff/smt":                     "8c30f74ee99d033e",
	"slr-scm-grouped/mcs/contended":                        "4476761c2b633e36",
	"slr-scm-grouped/mcs/smt":                              "932bae0a52aa5d38",
	"slr-scm-grouped/ticket-hle/contended":                 "f8c1e10a6d616fff",
	"slr-scm-grouped/ticket-hle/smt":                       "38f500dab9a68f51",
	"slr-scm-grouped/clh-hle/contended":                    "b8dc89f1bbe1fe38",
	"slr-scm-grouped/clh-hle/smt":                          "56919f5ddac465f7",
	"adaptive-hle/ttas/contended":                          "bd64da36290df7df",
	"adaptive-hle/ttas/smt":                                "2fe68dd04805d22e",
	"adaptive-hle/ttas-backoff/contended":                  "6d85d2d01c81d0ff",
	"adaptive-hle/ttas-backoff/smt":                        "c809486e3332f04d",
	"adaptive-hle/mcs/contended":                           "ac031ad34d55605e",
	"adaptive-hle/mcs/smt":                                 "6a4467fa7fe7df61",
	"adaptive-hle/ticket-hle/contended":                    "0f11c6e6196e7784",
	"adaptive-hle/ticket-hle/smt":                          "7376c3318dd7902c",
	"adaptive-hle/clh-hle/contended":                       "f3d8844be3cf2bab",
	"adaptive-hle/clh-hle/smt":                             "b9671f9c0e1260d9",
	"adaptive-slr/ttas/contended":                          "3f64c65d853054b1",
	"adaptive-slr/ttas/smt":                                "6e840fb071d8cb75",
	"adaptive-slr/ttas-backoff/contended":                  "37f40d5a3dc3bd09",
	"adaptive-slr/ttas-backoff/smt":                        "5f96c732bea47304",
	"adaptive-slr/mcs/contended":                           "d0e2220b59353273",
	"adaptive-slr/mcs/smt":                                 "a4035476e23b4c2b",
	"adaptive-slr/ticket-hle/contended":                    "f37453b1de74abc6",
	"adaptive-slr/ticket-hle/smt":                          "7d73e08e1a346d4c",
	"adaptive-slr/clh-hle/contended":                       "4e7cedc815d6f07a",
	"adaptive-slr/clh-hle/smt":                             "c4938999c2a7cb2c",
	"lazysub/ttas/contended":                               "112071682a0a71f4",
	"lazysub/ttas/smt":                                     "85f0930c289a4924",
	"lazysub/ttas-backoff/contended":                       "20caf270625ed6b6",
	"lazysub/ttas-backoff/smt":                             "7ad056486d262e59",
	"lazysub/mcs/contended":                                "33211e475b010522",
	"lazysub/mcs/smt":                                      "f938c2da6a829f5c",
	"lazysub/ticket-hle/contended":                         "815245ff75244b36",
	"lazysub/ticket-hle/smt":                               "a8ba2629a47c6ce1",
	"lazysub/clh-hle/contended":                            "ad8bf8edcc16ff5d",
	"lazysub/clh-hle/smt":                                  "a8e830693acfeee2",
	"adaptive-hle+0/2,0/1,5/5,12/8/ttas/contended":         "ebbc1e29f8dbd048",
	"adaptive-hle+0/2,0/1,5/5,12/8/ttas/smt":               "8b3a04b32b9075a0",
	"adaptive-hle+0/2,0/1,5/5,12/8/ttas-backoff/contended": "10d8a4f2e7fdf3b9",
	"adaptive-hle+0/2,0/1,5/5,12/8/ttas-backoff/smt":       "be8f623ea7fabda2",
	"adaptive-hle+0/2,0/1,5/5,12/8/mcs/contended":          "a15d39dc38b2bb2e",
	"adaptive-hle+0/2,0/1,5/5,12/8/mcs/smt":                "26979c556484e234",
	"adaptive-hle+0/2,0/1,5/5,12/8/ticket-hle/contended":   "d55acd56220b11fb",
	"adaptive-hle+0/2,0/1,5/5,12/8/ticket-hle/smt":         "4df21846ed0fb60e",
	"adaptive-hle+0/2,0/1,5/5,12/8/clh-hle/contended":      "bf3fd502e9d4443c",
	"adaptive-hle+0/2,0/1,5/5,12/8/clh-hle/smt":            "8777761f56926063",
	"adaptive-slr+0/2,0/1,5/5,12/8/ttas/contended":         "7b1e670c0e69f9a1",
	"adaptive-slr+0/2,0/1,5/5,12/8/ttas/smt":               "8a057b0c34215a1c",
	"adaptive-slr+0/2,0/1,5/5,12/8/ttas-backoff/contended": "f8312ecc9d050949",
	"adaptive-slr+0/2,0/1,5/5,12/8/ttas-backoff/smt":       "c6941774fcd508e4",
	"adaptive-slr+0/2,0/1,5/5,12/8/mcs/contended":          "4588d6532f194d91",
	"adaptive-slr+0/2,0/1,5/5,12/8/mcs/smt":                "fb2a54978a8836d3",
	"adaptive-slr+0/2,0/1,5/5,12/8/ticket-hle/contended":   "c6170da3da74c40e",
	"adaptive-slr+0/2,0/1,5/5,12/8/ticket-hle/smt":         "e804289982bde2e6",
	"adaptive-slr+0/2,0/1,5/5,12/8/clh-hle/contended":      "568a18eaa0c6ff02",
	"adaptive-slr+0/2,0/1,5/5,12/8/clh-hle/smt":            "af835e1bd2419c8c",
	"lazysub+hwfix/ttas/contended":                         "719a94adc755e2c9",
	"lazysub+hwfix/ttas/smt":                               "15edf45ec153b49e",
	"lazysub+hwfix/ttas-backoff/contended":                 "ad742996ee2fd24f",
	"lazysub+hwfix/ttas-backoff/smt":                       "9a852d14c18de3e6",
	"lazysub+hwfix/mcs/contended":                          "4bf722735ba79144",
	"lazysub+hwfix/mcs/smt":                                "64875bdafdda9341",
	"lazysub+hwfix/ticket-hle/contended":                   "27ac4c88a18e2abb",
	"lazysub+hwfix/ticket-hle/smt":                         "a4cc2955cd18fbcc",
	"lazysub+hwfix/clh-hle/contended":                      "cc492a004720de1d",
	"lazysub+hwfix/clh-hle/smt":                            "e10bbb6fb8141dba",
}

func TestGoldenPresetDigests(t *testing.T) {
	var keys []string
	got := map[string]string{}
	for _, v := range presetVariants() {
		for _, lock := range core.LockNames() {
			for _, sh := range presetShapes {
				cfg := DSConfig{
					Structure: StructTree, Threads: 8, Size: 16, Mix: MixExtensive,
					Scheme: v.scheme, Lock: LockID(lock),
					BudgetCycles: 100_000, Seed: 11, Quantum: 128, Cores: sh.cores,
					ACfg: v.acfg, HWFix: v.hwfix,
				}
				key := v.label + "/" + lock + "/" + sh.name
				keys = append(keys, key)
				got[key] = digestPresetRun(cfg)
			}
		}
	}
	var sb strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&sb, "\t%q: %q,\n", k, got[k])
		if want, ok := goldenPresetDigests[k]; !ok {
			t.Errorf("%s: no golden digest (got %s)", k, got[k])
		} else if got[k] != want {
			t.Errorf("%s: digest = %s, want %s", k, got[k], want)
		}
	}
	if len(goldenPresetDigests) != len(keys) {
		t.Errorf("goldenPresetDigests has %d entries, the roster %d", len(goldenPresetDigests), len(keys))
	}
	if t.Failed() {
		t.Logf("current digests:\n%s", sb.String())
	}
}
