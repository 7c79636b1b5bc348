package obs

import (
	"fmt"
	"io"
	"sort"
	"sync"
)

// HotLines attributes conflict aborts to the cache line the conflict
// happened on — the profiler §4's analysis calls for: a lemming run should
// finger the lock word's line, while an SLR run's conflicts should land on
// data lines only. Feed it the ConflictLine/ConflictTid of every
// CauseConflict abort status.
type HotLines struct {
	mu sync.Mutex
	// index maps a line to its tally in lines.
	index map[int]int
	// lines is one tally per line, in first-abort order: its conflict
	// aborts and the bitmask of procs whose accesses doomed victims there
	// (the sim caps procs at 64).
	lines []LineCount
	// aborters is conflict aborts per dooming proc tid — who caused aborts,
	// not just where — fed from Status.ConflictTid and grown on demand; a
	// zero entry is a proc that caused none.
	aborters []uint64
}

// NewHotLines creates an empty profiler.
func NewHotLines() *HotLines {
	return &HotLines{index: make(map[int]int)}
}

// tally returns line's tally, adding an empty one on its first abort. The
// caller holds h.mu.
func (h *HotLines) tally(line int) *LineCount {
	i, ok := h.index[line]
	if !ok {
		i = len(h.lines)
		h.index[line] = i
		h.lines = append(h.lines, LineCount{Line: line})
	}
	return &h.lines[i]
}

// countAborter adds n conflict aborts caused by tid >= 0. The caller holds
// h.mu.
func (h *HotLines) countAborter(tid int, n uint64) {
	if tid >= len(h.aborters) {
		h.aborters = append(h.aborters, make([]uint64, tid+1-len(h.aborters))...)
	}
	h.aborters[tid] += n
}

// Record attributes one conflict abort to line, doomed by proc tid (pass a
// negative tid when unknown). Negative lines (unknown location) are
// dropped. Safe on a nil receiver.
func (h *HotLines) Record(line, tid int) {
	if h == nil || line < 0 {
		return
	}
	h.mu.Lock()
	lc := h.tally(line)
	lc.Aborts++
	if tid >= 0 {
		h.countAborter(tid, 1)
		if tid < 64 {
			lc.Requestors |= 1 << uint(tid)
		}
	}
	h.mu.Unlock()
}

// Total returns the number of recorded conflict aborts.
func (h *HotLines) Total() uint64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	var t uint64
	for _, lc := range h.lines {
		t += lc.Aborts
	}
	return t
}

// LineCount is one hot-line table entry.
type LineCount struct {
	// Line is the cache-line index (mem.LineOf of the conflicting address).
	Line int
	// Aborts is how many conflict aborts were attributed to the line.
	Aborts uint64
	// Requestors is a bitmask of the procs whose accesses caused them.
	Requestors uint64
}

// TopN returns the n hottest lines, by abort count descending (ties broken
// by line index for determinism). n <= 0 returns every line.
func (h *HotLines) TopN(n int) []LineCount {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	out := make([]LineCount, len(h.lines))
	copy(out, h.lines)
	h.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Aborts != out[j].Aborts {
			return out[i].Aborts > out[j].Aborts
		}
		return out[i].Line < out[j].Line
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// AborterCount is one top-aborter table entry.
type AborterCount struct {
	// Tid is the proc whose accesses doomed victims.
	Tid int
	// Aborts is how many conflict aborts it caused.
	Aborts uint64
}

// TopAborters returns the n procs that caused the most conflict aborts, by
// count descending (ties broken by tid for determinism). n <= 0 returns
// every aborter.
func (h *HotLines) TopAborters(n int) []AborterCount {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	out := make([]AborterCount, 0, len(h.aborters))
	for tid, c := range h.aborters {
		if c != 0 {
			out = append(out, AborterCount{Tid: tid, Aborts: c})
		}
	}
	h.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Aborts != out[j].Aborts {
			return out[i].Aborts > out[j].Aborts
		}
		return out[i].Tid < out[j].Tid
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// WriteText renders the top-n table. annotate, when non-nil, returns a
// suffix for a line (e.g. "main lock" for the lock word's line).
func (h *HotLines) WriteText(w io.Writer, n int, annotate func(line int) string) {
	top := h.TopN(n)
	total := h.Total()
	fmt.Fprintf(w, "hot lines (%d conflict aborts attributed):\n", total)
	if len(top) == 0 {
		fmt.Fprintln(w, "  (none)")
		return
	}
	for _, lc := range top {
		pct := 0.0
		if total > 0 {
			pct = 100 * float64(lc.Aborts) / float64(total)
		}
		note := ""
		if annotate != nil {
			if s := annotate(lc.Line); s != "" {
				note = "  <- " + s
			}
		}
		fmt.Fprintf(w, "  line %-8d %8d aborts (%5.1f%%)  requestors=%0#x%s\n",
			lc.Line, lc.Aborts, pct, lc.Requestors, note)
	}
	aborters := h.TopAborters(n)
	if len(aborters) == 0 {
		return
	}
	fmt.Fprintln(w, "top aborter threads (conflict aborts caused):")
	for _, ac := range aborters {
		pct := 0.0
		if total > 0 {
			pct = 100 * float64(ac.Aborts) / float64(total)
		}
		fmt.Fprintf(w, "  tid %-8d %8d aborts (%5.1f%%)\n", ac.Tid, ac.Aborts, pct)
	}
}
