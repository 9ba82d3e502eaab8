package dist

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"hpcmr/engine"
)

// ShuffleServer serves one executor's map output over TCP: peers send
// ShuffleReq frames and get back the stored chunks, exactly as the
// local store holds them (typed slices boxed once — gob re-encodes
// them on the wire; the zero-copy path is reserved for local-owner
// fetches, which never reach the server).
type ShuffleServer struct {
	store *engine.ShuffleStore

	mu sync.Mutex
	ln net.Listener
}

// NewShuffleServer builds a server over the executor's local store.
func NewShuffleServer(store *engine.ShuffleStore) *ShuffleServer {
	return &ShuffleServer{store: store}
}

// Serve accepts fetch connections until the listener closes. Each
// connection may carry many requests; a malformed frame drops only its
// connection.
func (s *ShuffleServer) Serve(ln net.Listener) {
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		go s.serveConn(conn)
	}
}

// Close stops accepting fetches.
func (s *ShuffleServer) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln != nil {
		s.ln.Close()
	}
}

func (s *ShuffleServer) serveConn(conn net.Conn) {
	defer conn.Close()
	c := NewCodec(conn)
	for {
		m, err := c.Recv()
		if err != nil {
			return
		}
		req, ok := m.(*ShuffleReq)
		if !ok {
			return
		}
		if err := c.Send(s.answer(req)); err != nil {
			return
		}
	}
}

// answer resolves one request against the local store.
func (s *ShuffleServer) answer(req *ShuffleReq) *ShuffleResp {
	resp := &ShuffleResp{MissMapPart: -1, Chunks: make([]any, len(req.MapParts))}
	for i, m := range req.MapParts {
		ch, err := s.store.FetchChunk(req.Shuffle, m, req.ReducePart)
		if err != nil {
			var miss *engine.MapOutputMissingError
			if errors.As(err, &miss) {
				return &ShuffleResp{Miss: true, MissMapPart: miss.MapPart}
			}
			return &ShuffleResp{Err: err.Error(), MissMapPart: -1}
		}
		resp.Chunks[i] = ch
	}
	return resp
}

// FetchPeerChunks pulls the chunks of mapParts for one reduce partition
// from the shuffle server at addr, one dial per call. A server-side
// missing partition comes back as *engine.MapOutputMissingError with
// the same fields a local fetch would carry; transport failures are
// returned as plain (transient) errors for the caller's retry loop.
func FetchPeerChunks(addr string, shuffle, reducePart int, mapParts []int) ([]any, error) {
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		return nil, fmt.Errorf("dist: dial shuffle server %s: %w", addr, err)
	}
	defer conn.Close()
	c := NewCodec(conn)
	if err := c.Send(&ShuffleReq{Shuffle: shuffle, ReducePart: reducePart, MapParts: mapParts}); err != nil {
		return nil, err
	}
	m, err := c.Recv()
	if err != nil {
		return nil, fmt.Errorf("dist: shuffle fetch from %s: %w", addr, err)
	}
	resp, ok := m.(*ShuffleResp)
	if !ok {
		return nil, fmt.Errorf("dist: shuffle server %s answered %T", addr, m)
	}
	if resp.Miss {
		return nil, &engine.MapOutputMissingError{Shuffle: shuffle, MapPart: resp.MissMapPart}
	}
	if resp.Err != "" {
		return nil, fmt.Errorf("dist: shuffle server %s: %s", addr, resp.Err)
	}
	if len(resp.Chunks) != len(mapParts) {
		return nil, fmt.Errorf("dist: shuffle server %s returned %d chunks for %d parts",
			addr, len(resp.Chunks), len(mapParts))
	}
	return resp.Chunks, nil
}
