package cluster

import (
	"rocket/internal/sim"
)

// Storage models the central file server (the paper's MinIO over
// InfiniBand). Its bandwidth is shared: concurrent reads from many nodes
// queue on the server, so "actual bandwidth depends heavily on the load on
// the storage system" (§6.1) emerges naturally.
type Storage struct {
	// Latency is per-request overhead (connection, lookup).
	Latency sim.Time
	// Bandwidth is the aggregate server bandwidth in bytes/second.
	Bandwidth float64

	server *sim.Resource

	bytesRead    int64
	reads        uint64
	bytesWritten int64
	writes       uint64
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
	transfer := sim.Seconds(float64(size) / s.Bandwidth)
	e.After(s.Latency, func() {
		s.server.UseFunc(e, transfer, func(sim.Time) { fn() })
	})
}

// WriteFunc is the write-side analogue of ReadFunc: it charges the
// request latency, queues on the same shared server bandwidth (reads
// and writes contend for one fabric), and calls fn when the transfer
// completes. The pairstore uses it to charge segment-log appends.
func (s *Storage) WriteFunc(e *sim.Env, size int64, fn func()) {
	s.writes++
	s.bytesWritten += size
	transfer := sim.Seconds(float64(size) / s.Bandwidth)
	e.After(s.Latency, func() {
		s.server.UseFunc(e, transfer, func(sim.Time) { fn() })
	})
}

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
