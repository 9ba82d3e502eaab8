package engine_test

import (
	"errors"
	"net"
	"testing"

	"hpcmr/dist"
	"hpcmr/engine"
)

// These tests pin the shuffle store's volume accounting and the
// contract the distributed runtime's recovery path depends on: a fetch
// of unmaterialized map output yields the same MapOutputMissingError
// from the local store and across the network shuffle service.

func TestShuffleVolumeAccounting(t *testing.T) {
	s := engine.NewShuffleStore()
	id := s.Register(2, 2)
	// Typed chunks: 3 int64 records = 24 bytes.
	if err := s.PutChunksFrom(id, 0, 0, []any{[]int64{1, 2}, []int64{3}}); err != nil {
		t.Fatal(err)
	}
	v := s.ShuffleVolume(id)
	if v.Records != 3 || v.Bytes != 24 {
		t.Fatalf("volume after put = %+v, want 3 records / 24 bytes", v)
	}
	// Record-boxed buckets count one interface header (16B) per record.
	if err := s.PutChunksFrom(id, 1, 1, []any{[]any{1}, nil}); err != nil {
		t.Fatal(err)
	}
	v = s.ShuffleVolume(id)
	if v.Records != 4 || v.Bytes != 24+16 {
		t.Fatalf("volume after boxed put = %+v", v)
	}
	// A re-put (task retry) is movement too: counters are cumulative.
	if err := s.PutChunksFrom(id, 0, 2, []any{[]int64{1, 2}, []int64{3}}); err != nil {
		t.Fatal(err)
	}
	v = s.ShuffleVolume(id)
	if v.Records != 7 || v.Bytes != 48+16 {
		t.Fatalf("volume after re-put = %+v, want cumulative movement", v)
	}
	// Store totals mirror the shuffle counters and survive Drop.
	if tv := s.TotalVolume(); tv != v {
		t.Fatalf("total volume %+v != shuffle volume %+v", tv, v)
	}
	s.Drop(id)
	if tv := s.TotalVolume(); tv.Records != 7 {
		t.Fatalf("total volume lost on Drop: %+v", tv)
	}
	if v := s.ShuffleVolume(id); v.Records != 0 {
		t.Fatalf("dropped shuffle reports volume %+v", v)
	}
}

// serveStore exposes a store over the distributed shuffle service on an
// ephemeral loopback port, the way each executor serves its map output.
func serveStore(t *testing.T, s *engine.ShuffleStore) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := dist.NewShuffleServer(s)
	go srv.Serve(ln)
	t.Cleanup(srv.Close)
	return ln.Addr().String()
}

// TestRemoteFetchMissingMatchesLocal pins the contract the distributed
// runtime's recovery path depends on: a fetch of unmaterialized map
// output yields the same *engine.MapOutputMissingError whether the
// store is read locally or across the network.
func TestRemoteFetchMissingMatchesLocal(t *testing.T) {
	s := engine.NewShuffleStore()
	id := s.Register(2, 1)
	if err := s.PutChunksFrom(id, 0, -1, []any{[]int64{1}}); err != nil {
		t.Fatal(err)
	}

	_, localErr := s.FetchChunks(id, 0)
	var localMiss *engine.MapOutputMissingError
	if !errors.As(localErr, &localMiss) {
		t.Fatalf("local err = %v, want MapOutputMissingError", localErr)
	}

	addr := serveStore(t, s)
	_, remoteErr := dist.FetchPeerChunks(addr, id, 0, []int{0, 1})
	var remoteMiss *engine.MapOutputMissingError
	if !errors.As(remoteErr, &remoteMiss) {
		t.Fatalf("remote err = %v, want MapOutputMissingError", remoteErr)
	}
	if *remoteMiss != *localMiss {
		t.Fatalf("remote miss %+v != local miss %+v", *remoteMiss, *localMiss)
	}
	if remoteMiss.Shuffle != id || remoteMiss.MapPart != 1 {
		t.Fatalf("remote miss fields %+v, want shuffle %d map part 1", *remoteMiss, id)
	}
}
