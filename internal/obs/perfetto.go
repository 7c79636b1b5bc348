package obs

// TraceEvent is one Chrome trace-event object — the JSON Array Format that
// chrome://tracing and ui.perfetto.dev both load. The swimlane exporter
// (internal/trace), the causality engine's flow arrows and the flight
// recorder's chain stacks all build these. Ts is in microseconds by
// convention; we map one virtual cycle to one microsecond, so Perfetto's
// time axis reads directly in cycles.
type TraceEvent struct {
	Name  string         `json:"name"`
	Ph    string         `json:"ph"`
	Ts    uint64         `json:"ts"`
	Pid   int            `json:"pid"`
	Tid   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
	// Cat and ID are required on flow events (ph "s"/"f"): events with the
	// same cat+id form one flow arrow in the Perfetto UI.
	Cat string `json:"cat,omitempty"`
	ID  string `json:"id,omitempty"`
	// BP set to "e" on a flow finish binds the arrow to the slice *ending*
	// at Ts (the aborted transaction) instead of the next one beginning.
	BP string `json:"bp,omitempty"`
}
