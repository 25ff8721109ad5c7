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
	// Latency is per-request overhead (connection, lookup).
	Latency sim.Time
	// Bandwidth is the aggregate server bandwidth in bytes/second.
	Bandwidth float64

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
	writes       uint64
}

// ioRequest is one transfer on its way to the server.
type ioRequest struct {
	env *sim.Env
	// due is when the latency phase ends; hold the time on the server.
	due, hold sim.Time
	fn        func()
}

// NewStorage returns a storage server.
func NewStorage(latency sim.Time, bandwidth float64) *Storage {
	if bandwidth <= 0 {
		panic("cluster: storage bandwidth must be positive")
	}
	return &Storage{
		Latency:   latency,
		Bandwidth: bandwidth,
		server:    sim.NewResource("storage", 1),
	}
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
	s.writes++
	s.bytesWritten += size
	s.transfer(e, size, fn)
}

// transfer moves size bytes in either direction: the request latency, then
// the server for size/Bandwidth, then fn.
func (s *Storage) transfer(e *sim.Env, size int64, fn func()) {
	if s.arriveFn == nil {
		s.arriveFn, s.usedFn = s.arrive, s.used
	}
	due := e.Now() + s.Latency
	s.arriving.Push(ioRequest{env: e, due: due, hold: sim.Seconds(float64(size) / s.Bandwidth), fn: fn})
	e.At(due, s.arriveFn)
}

// arrive queues the oldest request in flight on the server.
func (s *Storage) arrive() {
	r := s.arriving.Pop()
	if r.due != r.env.Now() {
		panic("cluster: storage latency changed with requests in flight")
	}
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

// Writes returns the number of write requests served.
func (s *Storage) Writes() uint64 { return s.writes }

// QueueLen returns the number of requests waiting on the server.
func (s *Storage) QueueLen() int { return s.server.QueueLen() }
