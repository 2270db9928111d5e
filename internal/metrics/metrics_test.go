package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func TestJainPerfectEquity(t *testing.T) {
	if j := JainInt([]int64{5, 5, 5, 5}); math.Abs(j-1) > 1e-12 {
		t.Errorf("equal loads Jain = %v", j)
	}
	if j := JainInt([]int64{7, 7, 7}); math.Abs(j-1) > 1e-12 {
		t.Errorf("equal int loads Jain = %v", j)
	}
}

func TestJainWorstCase(t *testing.T) {
	xs := make([]int64, 10)
	xs[3] = 42
	if j := JainInt(xs); math.Abs(j-0.1) > 1e-12 {
		t.Errorf("single-server Jain = %v, want 0.1", j)
	}
}

func TestJainConventions(t *testing.T) {
	if JainInt(nil) != 1.0 || JainInt([]int64{0}) != 1.0 || JainInt([]int64{0, 0}) != 1.0 {
		t.Error("empty/zero JainInt should be 1.0")
	}
}

func TestJainRangeProperty(t *testing.T) {
	check := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]int64, len(raw))
		for i, v := range raw {
			xs[i] = int64(v)
		}
		j := JainInt(xs)
		lo := 1.0 / float64(len(xs))
		return j >= lo-1e-9 && j <= 1.0+1e-9
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestJainScaleInvariance(t *testing.T) {
	xs := []int64{1, 2, 3, 4}
	ys := []int64{10, 20, 30, 40}
	if math.Abs(JainInt(xs)-JainInt(ys)) > 1e-12 {
		t.Error("Jain not scale invariant")
	}
}

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("empty mean nonzero")
	}
	if m := Mean([]float64{1, 2, 3}); math.Abs(m-2) > 1e-12 {
		t.Errorf("mean = %v", m)
	}
}
