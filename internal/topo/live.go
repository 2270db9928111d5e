package topo

// Live is the live topology of a Network at one fault set, flattened:
// Nbr[x*Radix+p] is PortNeighbor(x, p) when the link is alive and -1 when
// it has failed. Port scans are the hottest loop of every table-driven
// routing, and the table turns two coordinate decodes and a fault-set
// probe per port into one load. A rebuild flattens the network once and
// hands the same Live to every table it refreshes; it is never mutated
// afterwards, so tables may keep Nbr.
type Live struct {
	N, Radix int
	Nbr      []int32
}

// LiveNeighbors flattens the live links of nw.
func (nw *Network) LiveNeighbors() *Live {
	n, radix := nw.H.Switches(), nw.H.SwitchRadix()
	lv := &Live{N: n, Radix: radix, Nbr: make([]int32, n*radix)}
	for x := 0; x < n; x++ {
		for p := 0; p < radix; p++ {
			lv.Nbr[x*radix+p] = nw.H.PortNeighbor(int32(x), p)
		}
	}
	if nw.Faults == nil {
		return lv
	}
	//hx:allow maprange each fault clears its own two slots of Nbr; the result is order-insensitive
	for e := range nw.Faults.dead {
		if e.U < 0 || int(e.V) >= n {
			continue // not a link of this topology, so never alive to begin with
		}
		if p := nw.H.PortTo(e.U, e.V); p >= 0 {
			lv.Nbr[int(e.U)*radix+p] = -1
			lv.Nbr[int(e.V)*radix+nw.H.PortTo(e.V, e.U)] = -1
		}
	}
	return lv
}

// Adj returns the live links x -> y that keep accepts (all of them when
// keep is nil) as an adjacency relation, reusing the storage of a.
func (lv *Live) Adj(a Adj, keep func(x, y int32) bool) Adj {
	a.Off = append(a.Off[:0], 0)
	a.Val = a.Val[:0]
	for x := 0; x < lv.N; x++ {
		for _, y := range lv.Nbr[x*lv.Radix : (x+1)*lv.Radix] {
			if y >= 0 && (keep == nil || keep(int32(x), y)) {
				a.Val = append(a.Val, y)
			}
		}
		a.Off = append(a.Off, int32(len(a.Val)))
	}
	return a
}
