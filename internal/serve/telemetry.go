// Telemetry instruments of the serving tier, registered against the
// process-wide default registry like the device and LibFS layers below
// (near-free while disabled). trio-top's conns/rpc/s/infl columns read
// these; the per-proc counters and latency histogram answer "what is
// the wire actually doing" the way nvm.* answers it for the media.
package serve

import "trio/internal/telemetry"

var (
	// mConns tracks currently open connections (inc on accept, dec on
	// close), mConnsTotal the all-time accept count.
	mConns      = telemetry.Default().NewCounter("serve.conns")
	mConnsTotal = telemetry.Default().NewCounter("serve.conns_total")

	// mRPCs counts completed RPCs across all procs; mProcs breaks them
	// out per proc for the EXPERIMENTS mix tables.
	mRPCs  = telemetry.Default().NewCounter("serve.rpcs")
	mProcs = [procCount]*telemetry.Counter{}

	// mInflight is the instantaneous number of requests admitted and
	// not yet replied, summed over connections (backpressure gauge).
	mInflight = telemetry.Default().NewCounter("serve.inflight")

	// mRPCNanos observes per-request server-side latency (decode →
	// reply queued), ns.
	mRPCNanos = telemetry.Default().NewHistogram("serve.rpc_ns")

	// mReplyBatches counts transport writes; mReplyFrames the reply
	// frames they carried. frames/batches is the reply-batching
	// amortization, the serving-tier analogue of nvm's trap-ops /
	// delays ratio.
	mReplyBatches = telemetry.Default().NewCounter("serve.reply_batches")
	mReplyFrames  = telemetry.Default().NewCounter("serve.reply_frames")

	// Verdict-level counters the tests and trio-top lean on.
	mDRCHits  = telemetry.Default().NewCounter("serve.drc_hits")
	mStale    = telemetry.Default().NewCounter("serve.stale")
	mBadFrame = telemetry.Default().NewCounter("serve.bad_frames")

	// mShed counts requests answered StatusBusy by admission control or
	// drain — the overload-shedding gauge (ISSUE 10).
	mShed = telemetry.Default().NewCounter("serve.shed")

	// Worker open-file cache: lookups that found a cached open (hits)
	// or had to resolve and open the handle (misses); cached opens
	// retired because a REMOVE, RENAME or CREATE named their file
	// (invalidations); and whole-cache flushes, taken only when a
	// worker fell behind the invalidation log or a mutation could not
	// name the file it affected.
	mFCHits          = telemetry.Default().NewCounter("serve.filecache_hits")
	mFCMisses        = telemetry.Default().NewCounter("serve.filecache_misses")
	mFCInvalidations = telemetry.Default().NewCounter("serve.filecache_invalidations")
	mFCFlushes       = telemetry.Default().NewCounter("serve.filecache_flushes")
)

func init() {
	for p := Proc(0); p < procCount; p++ {
		mProcs[p] = telemetry.Default().NewCounter("serve.proc." + p.String())
	}
}
