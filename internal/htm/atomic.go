package htm

import (
	"elision/internal/obs"
	"elision/internal/sim"
)

// Atomic executes body as a hardware transaction on proc p and returns its
// status: XBEGIN / body / XEND, with any abort unwinding back here (the
// fallback path). TSX-style flat nesting: if p is already in a transaction,
// body simply extends it and the inner Atomic reports Committed (an abort
// anywhere unwinds to the outermost Atomic instead).
func (m *Memory) Atomic(p *sim.Proc, body func(tx *Tx)) Status {
	if outer := m.cur[p.ID()]; outer != nil {
		outer.depth++
		defer func() { outer.depth-- }()
		body(outer)
		return Status{Committed: true, ConflictLine: -1, ConflictTid: -1}
	}

	p.Advance(m.cost.TxBegin)
	m.emitKind(p, obs.KindTxBegin)
	tx := &m.txs[p.ID()]
	tx.reset(p, m)
	m.cur[p.ID()] = tx

	var st Status
	func() {
		defer func() {
			r := recover()
			if r == nil {
				return
			}
			ab, ok := r.(*txAbortPanic)
			if !ok {
				// A genuine bug in the body: clean up and re-raise.
				tx.cleanup()
				m.cur[p.ID()] = nil
				panic(r)
			}
			st = ab.st
			tx.cleanup()
			p.Advance(m.cost.TxAbort)
			// cleanup leaves the member lists intact, so the sinks see
			// the sizes reached before the abort — and, for conflicts, the
			// full causality payload: the line, the aborter, whether it was
			// a fallback-path (non-transactional) access, and the aborter's
			// clock at the dooming access.
			if m.observed() {
				ev := m.event(p, obs.KindTxAbort)
				ev.ReadLines, ev.WriteLines = len(tx.readLines), len(tx.writeLines)
				ev.Cause, ev.Arg, ev.Code = st.Cause.String(), int64(st.Cause), st.Code
				ev.ConflictLine, ev.ConflictTid, ev.ConflictNT = st.ConflictLine, st.ConflictTid, st.ConflictNT
				ev.ConflictWhen = tx.doomWhen
				m.emit()
			}
		}()
		body(tx)
		st = tx.commit()
		if m.observed() {
			ev := m.event(p, obs.KindTxCommit)
			ev.ReadLines, ev.WriteLines = len(tx.readLines), len(tx.writeLines)
			m.emit()
		}
	}()
	m.cur[p.ID()] = nil
	return st
}
