package harness

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"testing"

	"elision/internal/fleet"
	"elision/internal/htm"
	"elision/internal/obs"
	"elision/internal/obs/causality"
	"elision/internal/obs/flight"
	"elision/internal/obs/rollup"
	"elision/internal/trace"
)

// observerPoints are the runs whose every observer output is pinned: the
// lemming point, an SCM point (aux-lock traffic), a tuned adaptive point
// (forfeit windows and adaptive_* families) and lazysub under the hardware
// fix (dangerous-action aborts).
var observerPoints = []struct {
	scheme SchemeID
	lock   LockID
	acfg   string
	hwfix  bool
}{
	{SchemeHLE, LockMCS, "", false},
	{SchemeHLESCM, LockMCS, "", false},
	{SchemeAdaptiveSLR, LockMCS, "0/2,0/1,5/5,12/8", false},
	{SchemeLazySub, LockTTAS, "", true},
}

// shortDigest hashes one rendered artifact.
func shortDigest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])[:16]
}

// render captures one writer-based artifact.
func render(t *testing.T, f func(w io.Writer) error) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := f(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// observerDigests renders every observer output of the pinned points and of
// a size-64 diagnosis panel with its campaign rollup, keyed by artifact.
func observerDigests(t *testing.T) ([]string, map[string]string) {
	var keys []string
	got := map[string]string{}
	put := func(key string, b []byte) {
		keys = append(keys, key)
		got[key] = shortDigest(b)
	}
	sc := TestScale()
	causeName := func(arg int64) string { return htm.Cause(arg).String() }
	for _, pt := range observerPoints {
		cfg := sc.Section4Config(pt.scheme, pt.lock)
		cfg.ACfg, cfg.HWFix = pt.acfg, pt.hwfix
		res, col, tr, eng, rec := FlightRun(cfg, causality.Config{}, flight.Config{})
		annotate := func(line int) string {
			if res.HasLockLine(line) {
				return " (lock)"
			}
			return ""
		}
		name := string(pt.scheme) + "/" + string(pt.lock)
		put(name+"/text", render(t, func(w io.Writer) error { col.WriteText(w, 0, annotate); return nil }))
		put(name+"/csv", render(t, func(w io.Writer) error { col.WriteCSV(w); return nil }))
		put(name+"/prom", render(t, func(w io.Writer) error { obs.WritePrometheus(w, col.Reg); return nil }))
		put(name+"/perfetto", render(t, func(w io.Writer) error {
			return trace.WriteChromeTraceFlows(w, tr.Events(), causeName, eng.FlowEvents())
		}))
		if len(rec.Chains()) == 0 {
			t.Fatalf("%s: no chain retained", name)
		}
		c := rec.Chains()[0]
		put(name+"/chronicle", render(t, func(w io.Writer) error { rec.WriteChronicle(w, c); return nil }))
		put(name+"/chain-perfetto", render(t, func(w io.Writer) error {
			return json.NewEncoder(w).Encode(flight.ChromeTraceEvents(c))
		}))
		put(name+"/timeline", render(t, func(w io.Writer) error {
			tr.Timeline(w, cfg.Threads, 0, res.Cycles, 100)
			return nil
		}))
	}
	put("lemming-timeline/mcs", []byte(LemmingTimeline(sc, LockMCS)))

	ru := rollup.New()
	d := DiagnoseRollup(sc, DefaultDiagnosePanel(), causality.Config{}, fleet.Config{Workers: 2}, ru)
	put("diagnose/json", render(t, func(w io.Writer) error { return json.NewEncoder(w).Encode(d) }))
	put("diagnose/text", render(t, func(w io.Writer) error { d.WriteText(w); return nil }))
	put("diagnose/rollup-text", render(t, func(w io.Writer) error { ru.WriteText(w); return nil }))
	put("diagnose/rollup-prom", render(t, func(w io.Writer) error { ru.WritePrometheus(w); return nil }))
	return keys, got
}

// goldenObserverDigests pins every observer output: the collector's text,
// CSV and Prometheus dumps, the swimlane Perfetto export with causality
// flows, a chain chronicle and its Perfetto export, the ASCII timelines,
// and the diagnosis panel's JSON, table and rollup. A failing
// TestGoldenObserverDigests logs the current map; copy it here only for a
// deliberate change to an observer's output.
var goldenObserverDigests = map[string]string{
	"hle/mcs/text":                    "e55d6370ac5d9f71",
	"hle/mcs/csv":                     "30c2b9936c9a2df2",
	"hle/mcs/prom":                    "3327a00224e0a9c4",
	"hle/mcs/perfetto":                "f9238b39db99e0e0",
	"hle/mcs/chronicle":               "da8055a0ad7aeaa5",
	"hle/mcs/chain-perfetto":          "27c54f9f7ad9e570",
	"hle/mcs/timeline":                "1d79cc869834cf0c",
	"hle-scm/mcs/text":                "f3ea4e6db53df687",
	"hle-scm/mcs/csv":                 "12a0cb3c2c799855",
	"hle-scm/mcs/prom":                "c31597442155e806",
	"hle-scm/mcs/perfetto":            "32ab71ff7a0643e0",
	"hle-scm/mcs/chronicle":           "a32af3c9edf231fd",
	"hle-scm/mcs/chain-perfetto":      "eb75653b231cbee1",
	"hle-scm/mcs/timeline":            "64fc6559cda0f3cc",
	"adaptive-slr/mcs/text":           "035aa5609843c606",
	"adaptive-slr/mcs/csv":            "fc2ae56dc66ad5f8",
	"adaptive-slr/mcs/prom":           "b089f1f4fb1fa943",
	"adaptive-slr/mcs/perfetto":       "77aec850a375d6a9",
	"adaptive-slr/mcs/chronicle":      "6bd9b7233a5ebc9f",
	"adaptive-slr/mcs/chain-perfetto": "9d20b4f326b8ccb0",
	"adaptive-slr/mcs/timeline":       "282a3439fa0b3a1f",
	"lazysub/ttas/text":               "424334eb388e6fea",
	"lazysub/ttas/csv":                "0fc97bc984471a32",
	"lazysub/ttas/prom":               "a76e59bc29054df7",
	"lazysub/ttas/perfetto":           "9d0c263addd23377",
	"lazysub/ttas/chronicle":          "80316065177bb7d4",
	"lazysub/ttas/chain-perfetto":     "ee8948f48504db25",
	"lazysub/ttas/timeline":           "6c08e3dc3a0f77c4",
	"lemming-timeline/mcs":            "e966a071238aed41",
	"diagnose/json":                   "b02d3623ffec1b74",
	"diagnose/text":                   "932b2e47a3e0cdfd",
	"diagnose/rollup-text":            "52ea38165abe42a9",
	"diagnose/rollup-prom":            "5630a7748d11cee4",
}

// TestLemmingTimelineIsSection4Point: the timeline renders the §4 point
// that FlightRun, the diagnose panel and elide run, so its totals line
// equals FlightRun's tracer counts over both locks.
func TestLemmingTimelineIsSection4Point(t *testing.T) {
	sc := TestScale()
	for _, lock := range []LockID{LockTTAS, LockMCS} {
		_, _, tr, _, _ := FlightRun(sc.Section4Config(SchemeHLE, lock), causality.Config{}, flight.Config{})
		c := tr.Counts()
		want := fmt.Sprintf("totals: %d begins, %d commits, %d aborts, %d lock acquisitions",
			c[obs.KindTxBegin], c[obs.KindTxCommit], c[obs.KindTxAbort], c[obs.KindLockAcquire])
		if got := strings.Split(LemmingTimeline(sc, lock), "\n")[1]; got != want {
			t.Errorf("%s: timeline %q, want the §4 point's %q", lock, got, want)
		}
	}
}

func TestGoldenObserverDigests(t *testing.T) {
	keys, got := observerDigests(t)
	var sb strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&sb, "\t%q: %q,\n", k, got[k])
		if want, ok := goldenObserverDigests[k]; !ok {
			t.Errorf("%s: no golden digest (got %s)", k, got[k])
		} else if got[k] != want {
			t.Errorf("%s: digest = %s, want %s", k, got[k], want)
		}
	}
	if len(goldenObserverDigests) != len(keys) {
		t.Errorf("goldenObserverDigests has %d entries, the roster %d", len(goldenObserverDigests), len(keys))
	}
	if t.Failed() {
		t.Logf("current digests:\n%s", sb.String())
	}
}
