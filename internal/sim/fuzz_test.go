package sim

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/topo"
	"repro/internal/wire"
)

// The decoders read bytes from disk and from sockets, so their contract
// is the robustness one: any byte string yields an error or a value,
// never a panic or a runaway allocation; and a value that decoded
// re-encodes to bytes that decode to the same value. (The comparison falls
// back to the re-encoded bytes because a decoded NaN is not DeepEqual to
// itself.)

func FuzzDecodeResult(f *testing.F) {
	f.Add(sampleResult().AppendBinary(nil))
	f.Add((&Result{}).AppendBinary(nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := DecodeResult(data)
		if err != nil {
			return
		}
		enc := r.AppendBinary(nil)
		again, err := DecodeResult(enc)
		if err != nil {
			t.Fatalf("re-encoded result does not decode: %v", err)
		}
		if !reflect.DeepEqual(again, r) && !bytes.Equal(again.AppendBinary(nil), enc) {
			t.Fatalf("result changed across a re-encode:\n%+v\nvs\n%+v", r, again)
		}
	})
}

func FuzzDecodeSnapshotState(f *testing.F) {
	_, snaps := collectSnapshots(f, snapshotRun(f, topo.MustHyperX(4, 4)), 400)
	for _, sealed := range [][]byte{snaps[0], readGzip(f, snapshotFromPR12)} {
		body, ok := wire.Open(sealed)
		if !ok {
			f.Fatal("seed snapshot fails its own trailer")
		}
		f.Add(body)
	}
	f.Add(appendSnapshotState(nil, &snapshotState{Magic: SnapshotVersion}))
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := decodeSnapshotState(data)
		if err != nil {
			return
		}
		enc := appendSnapshotState(nil, st)
		again, err := decodeSnapshotState(enc)
		if err != nil {
			t.Fatalf("re-encoded snapshot does not decode: %v", err)
		}
		if !reflect.DeepEqual(again, st) && !bytes.Equal(appendSnapshotState(nil, again), enc) {
			t.Fatal("snapshot state changed across a re-encode")
		}
	})
}
