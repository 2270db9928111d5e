// Package unusedexport is the fixture for the unusedexport analyzer,
// loaded under an internal/ import path. Its _test.go file is never
// parsed, so a function only that file calls has no referrer.
package unusedexport

// Dead has no referrer at all.
func Dead() int { return 1 } // want `exported function Dead has no non-test referrer`

// Helper is called from this file, which counts.
func Helper() int { return 2 }

func run() int { return Helper() }

// TestOnly is called from unusedexport_test.go only, which does not count.
func TestOnly() int { return 3 } // want `exported function TestOnly has no non-test referrer`

// T's methods are out of scope: interface satisfaction hides their callers.
type T struct{}

// Exported is a method nothing calls.
func (T) Exported() int { return 4 }

// Allowed has no referrer either, but says why it stays.
//
//hx:allow unusedexport fixture: a reasoned allow suppresses the finding
func Allowed() int { return 5 }
