package analyzers

import (
	"go/ast"
	"go/types"
	"maps"
	"reflect"
	"slices"
	"strconv"

	"repro/internal/analyzers/framework"
)

// codecTarget declares one serialized struct and the functions that must
// each reference every exported field.
type codecTarget struct {
	pkg      string   // package path the struct and codec live in
	typeName string   // struct type name
	encode   []string // encode-side functions ("Name") and methods ("Recv.Name"); all must cover every field
	decode   []string // decode-side; empty means decoding is reflective (encoding/json), checked via tag presence instead
	// unexported widens the check to unexported fields too — for
	// package-internal serialized structs like the engine, where every
	// field is unexported and a missed one silently breaks restore.
	unexported bool
	exempt     map[string]string
}

// codecTargets is the registry of codec-covered structs. The two real
// entries guard the result cache's on-disk format and the job spec's
// content address; the fixture entry exercises the analyzer's tests.
var codecTargets = []codecTarget{
	{
		pkg:      "repro/internal/sim",
		typeName: "Result",
		// One walk serves both directions (internal/wire): AppendBinary and
		// DecodeResult are wrappers around it that name no field.
		encode: []string{"Result.walk"},
		decode: []string{"Result.walk"},
	},
	{
		pkg:      "repro/internal/experiments",
		typeName: "JobSpec",
		// AppendCanonical and Hash are wrappers around appendCanonical,
		// which takes a grid's pre-encoded fault section and names every
		// field.
		encode: []string{"JobSpec.appendCanonical"},
		// JSON transport decodes reflectively; the tag-presence check below
		// pins every field to a stable wire name instead.
		decode: nil,
		exempt: map[string]string{
			"Label": "presentation only; deliberately excluded from the canonical encoding and hash",
		},
	},
	{
		// The mid-run checkpoint: captureSnapshot must read, and
		// applySnapshot must restore or validate, every engine field —
		// a field missed on either side resumes a preempted run into a
		// silently different simulation. Fields that are provably dead at
		// the inter-cycle snapshot point, derived, or rebuilt from the
		// spec are exempted below with the proof obligation each carries.
		pkg:        "repro/internal/sim",
		typeName:   "engine",
		encode:     []string{"engine.captureSnapshot"},
		decode:     []string{"engine.applySnapshot"},
		unexported: true,
		exempt: map[string]string{
			"nw":            "rebuilt by the caller from the spec; applySnapshot replays already-applied fault edges into it",
			"mech":          "rebuilt from the spec; applySnapshot re-runs the BFS rebuild after fault replay",
			"pat":           "stateless traffic pattern; rebuilt from the spec",
			"workers":       "runtime scheduling state; a snapshot restores under any worker count",
			"disp":          "runtime scheduling state; a snapshot restores under any worker count",
			"ws":            "runtime scheduling state; a snapshot restores under any worker count",
			"act":           "derived bookkeeping; rebuildActivity reconstructs it from the restored queues and wheel",
			"fullWalk":      "the tests' full-walk oracle flag, set at construction; a snapshot restores under either walk",
			"all":           "the full-walk oracle's list of every switch id, built at construction",
			"maskWords":     "derived from the radix at construction",
			"pq":            "rebuilt by rebuildDerived: outQ.len plus the port's pending evXferDones, and the credit sum of the port's input VCs; audited by auditPorts",
			"inInflight":    "rebuilt by rebuildDerived: the port's pending evCredits, one per transfer out of it; audited by auditPorts",
			"outVCCount":    "rebuilt by rebuildDerived: the port's queued packets tagged with the VC plus its pending evXferDones on it; audited by auditPorts",
			"inMask":        "rebuilt by rebuildDerived: some input VC of the port nonempty; audited by auditPorts",
			"outMask":       "rebuilt by rebuildDerived: outQ.len > 0 per port; audited by auditPorts",
			"injMask":       "rebuilt by rebuildDerived: injQ.len > 0 per server port; audited by auditPorts",
			"evMask":        "rebuilt by rebuildDerived: a bit per nonempty calendar slot per switch; audited by auditPorts",
			"hcArena":       "head cache, a function of the head packets and the tables; emptied by rebuildDerived (dropHeads), refilled on demand; audited by auditPorts",
			"hcOff":         "head cache, a function of the head packets and the tables; emptied by rebuildDerived (dropHeads), refilled on demand; audited by auditPorts",
			"hcLen":         "head cache, a function of the head packets and the tables; emptied by rebuildDerived (dropHeads), refilled on demand; audited by auditPorts",
			"hcTop":         "head cache, a function of the head packets and the tables; emptied by rebuildDerived (dropHeads), refilled on demand; audited by auditPorts",
			"hcCap":         "head-cache region size, derived from the radix and the VC count at construction",
			"portDead":      "a function of the spec and the schedule's faults before Now; applySnapshot replays markLinkDead over that prefix",
			"nextFault":     "derived on restore from Now and the schedule: applySnapshot counts the scheduled faults before Now as it replays them",
			"penCost":       "derived from Config at construction",
			"cfg":           "supplied by RunOptions at construction; its seven integer fields and PenaltyWeight are in the run identity (runIdentity), which a restore compares whole",
			"warmStart":     "set by Run from RunOptions (measureWindow); the window is in the run identity (runIdentity), which a restore compares whole",
			"warmEnd":       "set by Run from RunOptions (measureWindow); the window is in the run identity (runIdentity), which a restore compares whole",
			"seriesBucket":  "set by newEngine from RunOptions; the bucket is in the run identity (runIdentity), which a restore compares whole",
			"up":            "static far-end port map, derived from the topology at construction",
			"granted":       "stale after commit; reset by the next allocate phase before any read, so restored empty",
			"outbox":        "per-cycle staging, empty at the inter-cycle point; asserted empty by captureSnapshot",
			"freed":         "per-cycle staging, empty at the inter-cycle point; asserted empty by captureSnapshot",
			"swDelivered":   "per-cycle counter, zero at the inter-cycle point; asserted by captureSnapshot",
			"swLost":        "per-cycle counter, zero at the inter-cycle point; asserted by captureSnapshot",
			"swProgressed":  "per-cycle flag, false at the inter-cycle point; asserted by captureSnapshot",
			"faultSchedule": "supplied by RunOptions; with Now it fixes the cursor nextFault, so neither is in the format",
			"S":             "the topology shape, fixed by the spec at construction; pinned on restore by the per-switch array lengths (TieRNG, Win)",
			"R":             "the topology shape, fixed by the spec at construction; pinned on restore as P - K by the per-port and per-server array lengths",
			"K":             "the topology shape, fixed by the spec at construction; pinned on restore by the per-server array lengths (InjQLens, InjBusy, GenPhits)",
			"P":             "the topology shape, fixed by the spec at construction; pinned on restore by the per-port array lengths (OutQLens, OutBusy)",
			"V":             "the topology shape, fixed by the spec at construction; pinned on restore by the per-VC array lengths (InQLens, InBusyUntil, Credits)",
			"horizon":       "the calendar horizon, fixed by Config at construction; pinned on restore by the calendar's slot count (EventLens)",
			"logOneMinusGenProb": "recomputed by applySnapshot from the run's Load through arrivalLog, the helper initArrivals caches it with; " +
				"the load is in the run identity (runIdentity) as its bit pattern, which a restore compares whole",
		},
	},
	{
		// The snapshot wire struct itself: its one walk must touch every
		// field, same contract as sim.Result.
		pkg:      "repro/internal/sim",
		typeName: "snapshotState",
		encode:   []string{"snapshotState.walk"},
		decode:   []string{"snapshotState.walk"},
	},
	// The engine's element types the snapshot holds as they are: the same
	// walk codes each of their fields.
	{pkg: "repro/internal/sim", typeName: "packet", encode: []string{"snapshotState.walk"}, decode: []string{"snapshotState.walk"}, unexported: true},
	{pkg: "repro/internal/sim", typeName: "event", encode: []string{"snapshotState.walk"}, decode: []string{"snapshotState.walk"}, unexported: true},
	{pkg: "repro/internal/sim", typeName: "window", encode: []string{"snapshotState.walk"}, decode: []string{"snapshotState.walk"}, unexported: true},
	{pkg: "repro/internal/sim", typeName: "arrival", encode: []string{"snapshotState.walk"}, decode: []string{"snapshotState.walk"}, unexported: true},
	{
		// Two structs whose codec methods share a name: the registry's
		// Recv.Name keys must tell them apart.
		pkg:      "codeccoverage",
		typeName: "Left",
		encode:   []string{"Left.walk"},
		decode:   []string{"Left.walk"},
	},
	{
		pkg:      "codeccoverage",
		typeName: "Right",
		encode:   []string{"Right.walk"},
		decode:   []string{"Right.walk"},
	},
	{
		pkg:      "codeccoverage",
		typeName: "Wire",
		encode:   []string{"encodeWire"},
		decode:   []string{"decodeWire"},
		exempt: map[string]string{
			"Note": "fixture exemption",
			"Gone": "fixture exemption naming no field of the struct",
		},
	},
	{
		pkg:      "codeccoverage",
		typeName: "WireJSON",
		encode:   []string{"encodeWireJSON"},
		decode:   nil, // reflective: json-tag presence is the decode check
	},
}

// CodecCoverage asserts that every exported field of a codec-serialized
// struct is referenced by each of its encode and decode functions, and that
// every exemption in the registry names a field of its struct — a field
// deleted from the struct must take its exemption with it. Adding
// a field to sim.Result without extending its walk — or to
// experiments.JobSpec without extending appendCanonical — would
// silently corrupt the content-addressed cache: two semantically different
// values would encode (or hash) identically. With this check, the new
// field fails lint until every listed function handles it (or it is registered
// as exempt, with the reason in the registry). Structs whose decode side
// is reflective (encoding/json) instead require an explicit json tag on
// every exported field, pinning the wire name.
var CodecCoverage = &framework.Analyzer{
	Name: "codeccoverage",
	Doc:  "asserts codec encode/decode functions reference every exported field of the serialized structs",
	Run:  runCodecCoverage,
}

func runCodecCoverage(pass *framework.Pass) error {
	for _, tgt := range codecTargets {
		if tgt.pkg != pass.Pkg.Path() {
			continue
		}
		checkCodecTarget(pass, tgt)
	}
	return nil
}

func checkCodecTarget(pass *framework.Pass, tgt codecTarget) {
	obj := pass.Pkg.Scope().Lookup(tgt.typeName)
	if obj == nil {
		pass.Reportf(pass.Files[0].Pos(), "codec target %s.%s not found in package", tgt.pkg, tgt.typeName)
		return
	}
	st, ok := obj.Type().Underlying().(*types.Struct)
	if !ok {
		pass.Reportf(pass.Files[0].Pos(), "codec target %s is not a struct", tgt.typeName)
		return
	}

	// Exported fields, keyed by their types.Var identity so selections
	// resolve exactly, plus the declaration position for reporting.
	fields := make(map[*types.Var]bool)
	var ordered []*types.Var
	declared := make(map[string]bool)
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		declared[f.Name()] = true
		if !f.Exported() && !tgt.unexported {
			continue
		}
		if _, ok := tgt.exempt[f.Name()]; ok {
			continue
		}
		fields[f] = true
		ordered = append(ordered, f)
	}

	for _, name := range slices.Sorted(maps.Keys(tgt.exempt)) {
		if !declared[name] {
			pass.Reportf(obj.Pos(), "exemption %s of codec target %s names no field of the struct: delete it from codecTargets",
				name, tgt.typeName)
		}
	}

	funcs := codecFuncBodies(pass)
	check := func(side string, names []string) {
		for _, name := range names {
			body, found := funcs[name]
			if !found {
				pass.Reportf(pass.Files[0].Pos(), "codec %s function %s of %s not found in package", side, name, tgt.typeName)
				continue
			}
			covered := fieldsReferenced(pass, body, fields)
			for _, f := range ordered {
				if !covered[f] {
					pass.Reportf(f.Pos(),
						"serialized field %s.%s is not referenced by codec %s function %s: extend the codec (and bump its version) or register an exemption in codecTargets",
						tgt.typeName, f.Name(), side, name)
				}
			}
		}
	}
	check("encode", tgt.encode)
	if len(tgt.decode) > 0 {
		check("decode", tgt.decode)
	} else {
		checkJSONTags(pass, tgt, st)
	}
}

// codecFuncBodies maps every function of the package to its body, keyed
// "Name", and every method keyed "Recv.Name" (the receiver's type name,
// pointer or not): methods of different types may share a name, and a
// bare-name key would let one silently stand in for the other.
func codecFuncBodies(pass *framework.Pass) map[string]*ast.BlockStmt {
	out := make(map[string]*ast.BlockStmt)
	for _, file := range pass.Files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			name := fd.Name.Name
			if fd.Recv != nil && len(fd.Recv.List) == 1 {
				recv := fd.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				if id, ok := recv.(*ast.Ident); ok {
					name = id.Name + "." + name
				}
			}
			out[name] = fd.Body
		}
	}
	return out
}

// fieldsReferenced walks a body and records which of the given struct
// fields are selected anywhere in it.
func fieldsReferenced(pass *framework.Pass, body *ast.BlockStmt, fields map[*types.Var]bool) map[*types.Var]bool {
	covered := make(map[*types.Var]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.SelectorExpr:
			if sel, ok := pass.TypesInfo.Selections[x]; ok && sel.Kind() == types.FieldVal {
				if v, ok := sel.Obj().(*types.Var); ok && fields[v] {
					covered[v] = true
				}
			}
		case *ast.CompositeLit:
			// Result{A: ..., B: ...} in a decode function counts too.
			for _, elt := range x.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					if id, ok := kv.Key.(*ast.Ident); ok {
						if v, ok := pass.TypesInfo.Uses[id].(*types.Var); ok && fields[v] {
							covered[v] = true
						}
					}
				}
			}
		}
		return true
	})
	return covered
}

// checkJSONTags requires an explicit json tag (not "-") on every exported,
// non-exempt field of a reflectively decoded struct.
func checkJSONTags(pass *framework.Pass, tgt codecTarget, st *types.Struct) {
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if !f.Exported() {
			continue
		}
		if _, ok := tgt.exempt[f.Name()]; ok {
			continue
		}
		tag := reflect.StructTag(st.Tag(i)).Get("json")
		if tag == "" || tag == "-" {
			pass.Reportf(f.Pos(),
				"exported field %s.%s of the reflectively decoded struct has no json tag (got %s): pin the wire name explicitly",
				tgt.typeName, f.Name(), strconv.Quote(tag))
		}
	}
}
