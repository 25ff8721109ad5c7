package cluster

import (
	"rocket/internal/sim"
)

// Storage models the central file server (the paper's MinIO over
// InfiniBand). Its bandwidth is shared: concurrent reads from many nodes
// queue on the server, so "actual bandwidth depends heavily on the load on
// the storage system" (§6.1) emerges naturally.
//
// Every request pays the same latency and the server is one FIFO unit, so
// requests reach and leave the server in the order they were made: two
// rings and two continuations bound once carry any number of transfers.
type Storage struct {
	server *sim.Resource
	// arriving holds the requests still in their latency phase, serving
	// the completions of those queued on or occupying the server.
	arriving sim.Ring[ioRequest]
	serving  sim.Ring[func()]
	arriveFn func()
	usedFn   func(start sim.Time)

	bytesRead    int64
	reads        uint64
	bytesWritten int64
}

// ioRequest is one transfer on its way to the server: hold is its time
// on the server.
type ioRequest struct {
	env  *sim.Env
	hold sim.Time
	fn   func()
}

// ReadFunc simulates fetching size bytes: it accounts the bytes, charges
// the request latency, queues on the shared server bandwidth, and calls fn
// when the transfer completes. fn must not block.
func (s *Storage) ReadFunc(e *sim.Env, size int64, fn func()) {
	s.reads++
	s.bytesRead += size
	s.transfer(e, size, fn)
}

// WriteFunc is the write-side analogue of ReadFunc: reads and writes
// contend for one fabric. The pairstore uses it to charge segment-log
// appends.
func (s *Storage) WriteFunc(e *sim.Env, size int64, fn func()) {
	s.bytesWritten += size
	s.transfer(e, size, fn)
}

// transfer moves size bytes in either direction: the request latency, then
// the server for size/StorageBandwidth, then fn.
func (s *Storage) transfer(e *sim.Env, size int64, fn func()) {
	if s.arriveFn == nil {
		s.arriveFn, s.usedFn = s.arrive, s.used
	}
	s.arriving.Push(ioRequest{env: e, hold: sim.Seconds(float64(size) / StorageBandwidth), fn: fn})
	e.At(e.Now()+StorageLatency, s.arriveFn)
}

// arrive queues the oldest request in flight on the server.
func (s *Storage) arrive() {
	r := s.arriving.Pop()
	s.serving.Push(r.fn)
	s.server.UseFunc(r.env, r.hold, s.usedFn)
}

// used completes the oldest request on the server.
func (s *Storage) used(sim.Time) { s.serving.Pop()() }

// BytesRead returns the cumulative bytes served.
func (s *Storage) BytesRead() int64 { return s.bytesRead }

// Reads returns the number of read requests served.
func (s *Storage) Reads() uint64 { return s.reads }

// BytesWritten returns the cumulative bytes written.
func (s *Storage) BytesWritten() int64 { return s.bytesWritten }
