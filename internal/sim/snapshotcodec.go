package sim

import (
	"fmt"

	"repro/internal/wire"
)

// This file is the binary codec of snapshotState, under the layout rules
// of package wire. Every integer goes at the narrow fixed width of its
// field type, because the flattened arenas reach tens of millions of
// entries at paper scale and 8-byte-per-element encoding would triple
// checkpoint size and wire cost. Layout: one version byte, then every
// field of snapshotState in declaration order. The SHA-256 trailer and the
// gzip layer are applied by sealSnapshot, above this layer.

// walk names every snapshotState field once, in layout order, for both
// directions of the codec, and every field of the engine's packet, event,
// window and arrival elements the state holds. A new field of any of them
// goes here and bumps SnapshotVersion.
func (st *snapshotState) walk(c *wire.Coder) {
	c.String(&st.Run)

	c.I64(&st.Now)
	c.I64(&st.LastProgress)
	c.I64(&st.LostPkts)
	c.I64(&st.StalledGenPkts)

	wire.Ints(c, &st.GenRNG)
	wire.Ints(c, &st.TieRNG)

	wire.Ints(c, &st.InQLens)
	wire.Ints(c, &st.InQData)
	wire.Ints(c, &st.InBusyUntil)
	wire.Ints(c, &st.Credits)

	wire.Ints(c, &st.OutQLens)
	wire.Ints(c, &st.OutQPkt)
	wire.Ints(c, &st.OutQVC)
	wire.Ints(c, &st.OutBusy)

	wire.Ints(c, &st.InjQLens)
	wire.Ints(c, &st.InjQData)
	wire.Ints(c, &st.InjBusy)

	for i := range wire.Len(c, &st.Pool, 8+2+1+7*4+1+1+1+1) {
		p := &st.Pool[i]
		c.I64(&p.birth)
		c.I16(&p.dstLocal)
		c.Bool(&p.inWindow)
		c.I32(&p.st.Src)
		c.I32(&p.st.Dst)
		c.I32(&p.st.Hops)
		c.I32(&p.st.Deroutes)
		c.I32(&p.st.MinHops)
		c.I32(&p.st.DerouteMask)
		c.I32(&p.st.Intermediate)
		c.I8(&p.st.Phase)
		c.Bool(&p.st.CloserToSrc)
		c.Bool(&p.st.InEscape)
		c.I8(&p.st.EscPhase)
	}
	wire.Ints(c, &st.Free)

	wire.Ints(c, &st.EventLens)
	for i := range wire.Len(c, &st.Events, 1+1+4+4) {
		ev := &st.Events[i]
		c.I8(&ev.kind)
		c.I8(&ev.vc)
		c.I32(&ev.a)
		c.I32(&ev.pkt)
	}

	for i := range wire.Len(c, &st.Win, 6*8) {
		w := &st.Win[i]
		c.I64(&w.deliveredPkts)
		c.I64(&w.latencySum)
		c.I64(&w.hopSum)
		c.I64(&w.escapedPkts)
		c.I64(&w.linkBusy)
		c.I64(&w.lastDelivery)
	}
	wire.Ints(c, &st.GenPhits)

	for i := range wire.Len(c, &st.ArrQ, 8+4) {
		a := &st.ArrQ[i]
		c.I64(&a.at)
		c.I32(&a.server)
	}

	wire.Ints(c, &st.Series)
}

// appendSnapshotState appends the binary encoding of st to b.
func appendSnapshotState(b []byte, st *snapshotState) []byte {
	return wire.Encode(b, snapshotCodecVersion, st.walk)
}

// decodeSnapshotState decodes an appendSnapshotState buffer (without the
// checksum trailer). Every failure wraps ErrBadSnapshot: truncation, codec
// version mismatch, implausible slice lengths and trailing bytes are all
// "no usable checkpoint" to the caller.
func decodeSnapshotState(b []byte) (*snapshotState, error) {
	st := &snapshotState{}
	if err := wire.Decode(b, snapshotCodecVersion, st.walk); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	return st, nil
}
