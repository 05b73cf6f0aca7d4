// Package mutate hosts the seeded-defect switchboard the conformance
// harness uses to validate itself (DESIGN §5e). A handful of call sites in
// geometry, sfc, cods and transport consult Enabled(name); in a normal
// build Enabled is a constant false that the compiler erases, so the
// production pipeline carries no mutation code at all. Building with
//
//	go test -tags conformance_mutations
//
// swaps in the environment-driven implementation (mutate_on.go): setting
// CODS_MUTATION=<name> activates exactly one seeded bug, and the mutation
// detection test asserts the conformance suite fails under every one of
// them while passing with none active.
package mutate

// The seeded defect names. Each names one deliberate bug at one call site;
// see the mutation detection test for the scenario that catches each.
const (
	// GeomIntersect shrinks every non-degenerate intersection by one cell
	// along dimension 0 (the classic inclusive/exclusive bound slip).
	GeomIntersect = "geom-intersect"
	// SfcSpanSplit mangles the orthant walk's answer for a region, exact
	// spans and routing cover alike: the last span is dropped (or a lone
	// span shortened), so DHT routing misses the tail of the linearized
	// index range.
	SfcSpanSplit = "sfc-span-split"
	// SchedDropTransfer loses the last read of a communication schedule in
	// the step that orders it, so one stored block's cells never arrive.
	SchedDropTransfer = "sched-drop-transfer"
	// StaleEpoch ignores the schedule-cache invalidation stamp, serving
	// cached schedules that point at discarded or restaged owners.
	StaleEpoch = "stale-epoch"
	// SwapFlow records every fabric transfer with source and destination
	// exchanged, corrupting the flow log while leaving totals intact.
	SwapFlow = "swap-flow"
	// GetNoRetry gives a get one attempt whatever its retry policy, so a
	// transient read fault fails a get the policy would have healed.
	GetNoRetry = "get-no-retry"
	// TCPTruncFrame truncates every encoded TCP wire frame by one byte
	// before the length prefix is computed, so the peer's strict decoder
	// rejects the frame — the classic short-write bug.
	TCPTruncFrame = "tcp-trunc-frame"
	// TCPMeterClass swaps the InterApp and Control meter classes on the
	// TCP wire, so the serving side books coupled data as control traffic.
	TCPMeterClass = "tcp-meter-class"
	// TCPSGDrop makes the scatter-gather server announce and stream one
	// segment fewer than requested, as if the batch had swallowed its last
	// sub-box — the batched twin of SchedDropTransfer, living on the wire.
	TCPSGDrop = "tcp-sg-drop"
	// TCPSGReorder swaps the payloads of the first two scatter-gather
	// segments while keeping their indices intact: the stream stays
	// protocol-valid but delivers the wrong bytes into each slot.
	TCPSGReorder = "tcp-sg-reorder"
	// TCPBlockShift makes the owning process decode an exposed block's
	// region shifted by one cell along its last dimension, so the put half
	// of the block wire codec lands the right bytes at the wrong
	// coordinates. It only exists where an expose crosses the wire (a
	// driver staging on a serving node: codsrun -backend=tcp, the
	// conformance TCP leg), never in process.
	TCPBlockShift = "tcp-block-shift"
	// TCPClipRowSkew makes the owning process clip a block it received over
	// the wire with every row after the first copied from one cell further
	// along: the segment keeps its length and its first row, the rest of its
	// cells are their neighbours'. Like TCPBlockShift it only exists where an
	// expose crosses the wire; the conformance sweep catches both.
	TCPClipRowSkew = "tcp-clip-row-skew"
	// TCPMsgEntryDrop makes the decoder of a DHT query response forget the
	// last of two or more entries — every byte still consumed, so the strict
	// codec stays silent. It only exists where a lookup crosses the wire.
	TCPMsgEntryDrop = "tcp-msg-entry-drop"
	// ObsFlowMisattribute credits every cross-node cell of the aggregated
	// flow matrix to the wrong destination node (dst+1), leaving per-cell
	// and total byte counts intact — the observability-plane twin of
	// SwapFlow, living in the aggregation instead of the recording.
	ObsFlowMisattribute = "obs-flow-misattribute"
	// ReconcileSkipReinsert makes the membership reconcile re-stage the
	// lost node's blocks but skip re-registering the survivors', so every
	// location record that lived only in the lost node's DHT table stays
	// lost and lookups over its index interval come back short.
	ReconcileSkipReinsert = "reconcile-skip-reinsert"
	// StaleWatermarkServed makes a stream's GetLatest serve the version one
	// behind the complete watermark whenever an older version is still
	// retained — the consumer silently reads stale data inside the lag
	// window instead of the freshest complete version.
	StaleWatermarkServed = "stale-watermark-served"
	// GCBeforeConsume widens the drop-oldest retirement bound by one, so a
	// version the lag bound still entitles consumers to read is retired
	// (and its blocks discarded) before every cursor has passed it.
	GCBeforeConsume = "gc-before-consume"
	// VersionSkipOnResubscribe starts a resubscribing cursor one version
	// past the position it asked for, so the first unconsumed version is
	// silently skipped across a Close/SubscribeFrom boundary.
	VersionSkipOnResubscribe = "version-skip-on-resubscribe"
	// MortonBitSwap transposes the z-order decode of a Morton curve (the
	// one de-interleave its Decode and span walk share): bit l of
	// dimension d is read from l*dim+d instead of l*dim+(dim-1-d), so
	// Decode no longer inverts Encode and Spans covers the mirrored cells
	// of a box. Hilbert curves are untouched.
	MortonBitSwap = "morton-bit-swap"
)

// Names lists every seeded defect, in a stable order.
func Names() []string {
	return []string{GeomIntersect, SfcSpanSplit, SchedDropTransfer, StaleEpoch, SwapFlow, GetNoRetry,
		TCPTruncFrame, TCPMeterClass, TCPSGDrop, TCPSGReorder, TCPBlockShift, TCPClipRowSkew, TCPMsgEntryDrop, ObsFlowMisattribute,
		ReconcileSkipReinsert,
		StaleWatermarkServed, GCBeforeConsume, VersionSkipOnResubscribe,
		MortonBitSwap}
}
