package perf

import (
	"testing"
)

// The two A/B tests below pin the deterministic side of each pair: the
// volume and placement counters the optimization exists to change.
// Whether the A arm is also faster is a wall-clock judgement, which
// `cigate ab` makes in its own CI step so host load cannot fail this
// suite.

// TestMapSideCombineABGate is the acceptance A/B for map-side
// combining: the low-cardinality aggregation run with the combiner
// enabled must move at least 5x fewer shuffle records, and fewer
// shuffle bytes, than the combine-disabled twin. With 100k records over
// 128 keys the combined path moves ~2k records where the disabled path
// moves all 100k, so the margin is decisive, not marginal.
func TestMapSideCombineABGate(t *testing.T) {
	if testing.Short() {
		t.Skip("full A/B measurement in -short")
	}
	combined, disabled, err := RunAB(ABPairs[0], RunOptions{Short: true, Reps: 9, Warmup: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}

	combRecs := combined.Extra["shuffle_records_moved"]
	plainRecs := disabled.Extra["shuffle_records_moved"]
	if combRecs <= 0 || plainRecs <= 0 {
		t.Fatalf("missing shuffle_records_moved: combined=%v disabled=%v",
			combined.Extra, disabled.Extra)
	}
	if plainRecs < 5*combRecs {
		t.Fatalf("shuffle reduction %.1fx, want >= 5x (combined %.0f vs disabled %.0f records)",
			plainRecs/combRecs, combRecs, plainRecs)
	}
	if cb, pb := combined.Extra["shuffle_bytes_moved"], disabled.Extra["shuffle_bytes_moved"]; cb >= pb {
		t.Fatalf("combined shuffle bytes %.0f not below disabled %.0f", cb, pb)
	}
}

// TestPagerankLocalityABGate is the acceptance A/B for shuffle-locality
// placement: the iterative pagerank scenario with placement on must
// resolve a median >= 90% of its gather bytes through the co-located
// zero-copy path, and move fewer remote fetch bytes than the
// locality-disabled twin, on a single-node 4-executor cluster.
func TestPagerankLocalityABGate(t *testing.T) {
	if testing.Short() {
		t.Skip("full A/B measurement in -short")
	}
	local, remote, err := RunAB(ABPairs[1], RunOptions{Short: true, Reps: 9, Warmup: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}

	ratio, ok := local.Extra["shuffle_local_fetch_ratio"]
	if !ok {
		t.Fatalf("locality scenario reported no shuffle_local_fetch_ratio: %v", local.Extra)
	}
	if ratio < 0.9 {
		t.Fatalf("median local fetch ratio %.4f, want >= 0.9", ratio)
	}
	if lb, rb := local.Extra["remote_fetch_bytes"], remote.Extra["remote_fetch_bytes"]; lb >= rb {
		t.Fatalf("locality-on moved %.0f remote bytes, not below locality-off's %.0f", lb, rb)
	}
}
