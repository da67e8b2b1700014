package server

import (
	"log"

	"zbp/internal/rcache"
)

// Background cache auditor. A result cache serves repeat cells without
// simulating, which is exactly why it must be audited: a poisoned disk
// entry, a stale-schema payload or bit rot would otherwise be served
// forever. Every AuditEvery'th cache hit is handed to a single
// background goroutine that has the executor recompute the cell from
// scratch and compare it against what the cache served — a single box
// through equiv.Audit on a fresh machine, a coordinator through a
// no-cache fleet dispatch. Divergence lands in the
// *cache_audit_failures_total series and the log; it is the integrity
// check the cache's deliberately unchecksummed disk format relies on.

// auditTask carries one sampled cache hit to the audit loop.
type auditTask struct {
	key   rcache.Key
	cell  rcache.CellSpec
	stats []byte
}

// maybeAudit samples cache hits into the audit queue. The send is
// non-blocking: auditing is a watchdog, not a gate, so when the
// auditor is saturated the sample is dropped (and counted) rather
// than stalling the serving path.
func (f *Front) maybeAudit(key rcache.Key, cell rcache.CellSpec, stats []byte) {
	if f.auditCh == nil {
		return
	}
	if f.AuditHits.Add(1)%int64(f.role.AuditEvery) != 0 {
		return
	}
	select {
	case f.auditCh <- auditTask{key: key, cell: cell, stats: stats}:
	default:
		f.AuditDropped.Add(1)
	}
}

// auditLoop drains sampled hits until the front's base context dies.
// One goroutine, deliberately: audits are full recomputations, and a
// single lane bounds how much capacity verification can steal from
// real traffic.
func (f *Front) auditLoop() {
	defer f.asyncWG.Done()
	for {
		select {
		case <-f.baseCtx.Done():
			return
		case t := <-f.auditCh:
			f.runAudit(t)
		}
	}
}

// runAudit recomputes one sampled hit and records the verdict.
func (f *Front) runAudit(t auditTask) {
	f.Audits.Add(1)
	findings, err := f.exec.Audit(f.baseCtx, t.cell, t.stats)
	switch {
	case err != nil:
		if f.baseCtx.Err() != nil {
			// Shutdown interrupted the recompute; not an audit error.
			f.Audits.Add(-1)
			return
		}
		f.AuditErrors.Add(1)
		log.Printf("cache audit error: key %s: %v", t.key.Hash(), err)
	case len(findings) > 0:
		f.AuditFailures.Add(int64(len(findings)))
		for _, d := range findings {
			log.Printf("CACHE AUDIT FAILURE: key %s: %s", t.key.Hash(), d)
		}
	}
}
