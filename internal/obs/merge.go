package obs

import (
	"sort"
	"strings"
)

// MetricSnapshot is one exported metric reading — the raw material for
// cross-registry merging and campaign rollups. Scalars use Value; histograms
// use Count/Sum/Max/Buckets.
type MetricSnapshot struct {
	// Kind is "counter", "gauge" or "histogram".
	Kind string
	// Name is the metric name as registered.
	Name string
	// Labels is the rendered "k=v,k=v" form ("" when unlabelled).
	Labels string
	// Value is the counter/gauge reading.
	Value int64
	// Count, Sum and Max are the histogram stats.
	Count, Sum, Max uint64
	// Buckets is a copy of the histogram's log2 buckets (nil for scalars):
	// bucket 0 holds exact zeros, bucket i holds samples in [2^(i-1), 2^i).
	Buckets []uint64
}

// Buckets returns a copy of the histogram's log2 bucket counts (see the
// histBuckets doc for the bucket boundaries).
func (h *Histogram) Buckets() []uint64 {
	out := make([]uint64, histBuckets)
	for i := range h.buckets {
		out[i] = h.buckets[i].Load()
	}
	return out
}

// merge folds src into h. All fields are commutative sums except max, which
// folds by CAS — merging a set of histograms yields the same result in any
// order.
func (h *Histogram) merge(src *Histogram) {
	h.count.Add(src.count.Load())
	h.sum.Add(src.sum.Load())
	for i := range h.buckets {
		if n := src.buckets[i].Load(); n != 0 {
			h.buckets[i].Add(n)
		}
	}
	v := src.max.Load()
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Snapshot exports every metric, sorted by (name, labels, kind) — the same
// stable order as the text and CSV dumps.
func (r *Registry) Snapshot() []MetricSnapshot {
	r.mu.Lock()
	out := make([]MetricSnapshot, 0, len(r.counters)+len(r.gauges)+len(r.hists))
	for k, c := range r.counters {
		out = append(out, MetricSnapshot{Kind: "counter", Name: k.name, Labels: k.labels, Value: int64(c.Value())})
	}
	for k, g := range r.gauges {
		out = append(out, MetricSnapshot{Kind: "gauge", Name: k.name, Labels: k.labels, Value: g.Value()})
	}
	for k, h := range r.hists {
		out = append(out, MetricSnapshot{
			Kind: "histogram", Name: k.name, Labels: k.labels,
			Count: h.Count(), Sum: h.Sum(), Max: h.Max(), Buckets: h.Buckets(),
		})
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		if out[i].Labels != out[j].Labels {
			return out[i].Labels < out[j].Labels
		}
		return out[i].Kind < out[j].Kind
	})
	return out
}

// Merge folds every metric of src into r: counters and gauges add, histograms
// fold bucket-wise (max folds by maximum). Merging N registries produces the
// same r in any order — the property campaign rollups rely on for
// worker-count-independent output. src is read point-in-time; both registries
// stay usable afterwards.
func (r *Registry) Merge(src *Registry) {
	if src == nil || src == r {
		return
	}
	type centry struct {
		k metricKey
		c *Counter
	}
	type gentry struct {
		k metricKey
		g *Gauge
	}
	type hentry struct {
		k metricKey
		h *Histogram
	}
	src.mu.Lock()
	cs := make([]centry, 0, len(src.counters))
	for k, c := range src.counters {
		cs = append(cs, centry{k, c})
	}
	gs := make([]gentry, 0, len(src.gauges))
	for k, g := range src.gauges {
		gs = append(gs, gentry{k, g})
	}
	hs := make([]hentry, 0, len(src.hists))
	for k, h := range src.hists {
		hs = append(hs, hentry{k, h})
	}
	src.mu.Unlock()

	for _, e := range cs {
		r.counterByKey(e.k).Add(e.c.Value())
	}
	for _, e := range gs {
		r.gaugeByKey(e.k).Add(e.g.Value())
	}
	for _, e := range hs {
		r.histogramByKey(e.k).merge(e.h)
	}
}

// counterByKey returns the counter under an already-rendered metric key,
// creating it on first use.
func (r *Registry) counterByKey(k metricKey) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[k]
	if !ok {
		c = &Counter{}
		r.counters[k] = c
	}
	return c
}

// gaugeByKey is counterByKey for gauges.
func (r *Registry) gaugeByKey(k metricKey) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[k]
	if !ok {
		g = &Gauge{}
		r.gauges[k] = g
	}
	return g
}

// histogramByKey is counterByKey for histograms.
func (r *Registry) histogramByKey(k metricKey) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[k]
	if !ok {
		h = &Histogram{}
		r.hists[k] = h
	}
	return h
}

// ParseLabels parses the "k=v,k=v" rendering produced by Labels.String back
// into a Labels ("" parses to nil). Label values containing ',' or '=' are
// not representable in this form; the simulator's label values (scheme and
// lock names, abort causes) never contain either.
func ParseLabels(s string) Labels {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	ls := make(Labels, 0, len(parts))
	for _, p := range parts {
		k, v, _ := strings.Cut(p, "=")
		ls = append(ls, Label{Key: k, Value: v})
	}
	return ls
}

// Get returns the value of the label with the given key ("" when absent).
func (ls Labels) Get(key string) string {
	for _, l := range ls {
		if l.Key == key {
			return l.Value
		}
	}
	return ""
}

// Merge folds src's per-line tallies into h: abort counts add, requestor
// masks union, per-aborter counts add. Order-independent, so campaign-level
// hot-line tables are worker-count-invariant. Safe on nil receiver or nil
// src (both no-ops).
func (h *HotLines) Merge(src *HotLines) {
	if h == nil || src == nil || src == h {
		return
	}
	src.mu.Lock()
	lines := append([]LineCount(nil), src.lines...)
	aborters := append([]uint64(nil), src.aborters...)
	src.mu.Unlock()

	h.mu.Lock()
	for _, lc := range lines {
		t := h.tally(lc.Line)
		t.Aborts += lc.Aborts
		t.Requestors |= lc.Requestors
	}
	for tid, n := range aborters {
		if n != 0 {
			h.countAborter(tid, n)
		}
	}
	h.mu.Unlock()
}
