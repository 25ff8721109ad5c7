// Package cluster models the distributed platform the paper evaluates on:
// compute nodes (CPU cores, host memory, one or more GPUs), an InfiniBand-
// style network with per-NIC bandwidth and latency, and a central storage
// server with shared bandwidth (the paper's MinIO service).
package cluster

import (
	"fmt"

	"rocket/internal/gpu"
	"rocket/internal/sim"
)

// NodeSpec describes the hardware of one node.
type NodeSpec struct {
	// Cores is the number of CPU cores available to the parse/postprocess
	// thread pool. DAS-5 and Cartesius nodes have 16.
	Cores int
	// HostCacheBytes is the page-locked main memory dedicated to the
	// level-2 host cache (40 GiB on DAS-5, 80 GiB on Cartesius).
	HostCacheBytes int64
	// GPUs lists the device models installed in the node.
	GPUs []gpu.Model
}

// Validate reports an error for nonsensical specs.
func (s NodeSpec) Validate() error {
	if s.Cores < 1 {
		return fmt.Errorf("cluster: node needs at least 1 core, got %d", s.Cores)
	}
	if s.HostCacheBytes < 0 {
		return fmt.Errorf("cluster: negative host cache size %d", s.HostCacheBytes)
	}
	if len(s.GPUs) == 0 {
		return fmt.Errorf("cluster: node needs at least 1 GPU")
	}
	return nil
}

// Node is one simulated machine.
type Node struct {
	ID   int
	Spec NodeSpec
	// CPU is the parse/postprocess thread pool (capacity = Cores).
	CPU *sim.Resource
	// IO serializes this node's requests to remote storage (the paper uses
	// one I/O thread per node, §4.3).
	IO *sim.Resource
	// NIC serializes outbound network transfers.
	NIC *sim.Resource
	// Inbox receives messages from peer nodes.
	Inbox *sim.Mailbox[Message]
	// GPUs are the node's devices.
	GPUs []*gpu.Device
	// name is the trace identifier, formatted once by AddNode: trace and
	// span naming asks for it on hot paths.
	name string
	// net is the fabric the node sends on; nicq lists, oldest first, the
	// transfer slots whose serialization holds are queued on or occupying
	// NIC, and sentFn is the continuation of those holds, bound on the
	// node's first remote send (see Network.transmit).
	net    *Network
	nicq   sim.Ring[uint32]
	sentFn func(start sim.Time)
}

// Name returns the node's trace identifier, e.g. "node3".
func (n *Node) Name() string { return n.name }

// Cluster is the set of nodes plus the fabrics connecting them. Nodes is
// append-only (IDs are dense, node i at index i); grow it through AddNode
// so the aggregate counters stay consistent.
type Cluster struct {
	Nodes   []*Node
	Net     *Network
	Storage *Storage

	// Incrementally maintained aggregates: membership churn queries these
	// on every placement decision, so they must not rescan Nodes.
	totalGPUs  int
	totalSpeed float64
}

// Config configures fabric characteristics.
type Config struct {
	// NetLatency is the one-way message latency (FDR InfiniBand ~ few us).
	NetLatency sim.Time
	// NetBandwidth is per-NIC bandwidth in bytes/second (56 Gb/s FDR = 7e9).
	NetBandwidth float64
	// StorageLatency is the per-request overhead of the storage server.
	StorageLatency sim.Time
	// StorageBandwidth is the server's aggregate bandwidth in bytes/second,
	// shared by all nodes.
	StorageBandwidth float64
}

// DefaultConfig returns fabric parameters modeled on the DAS-5 setup:
// 56 Gb/s FDR InfiniBand and a MinIO server on the same fabric.
func DefaultConfig() Config {
	return Config{
		NetLatency:       sim.Micros(5),
		NetBandwidth:     7e9,
		StorageLatency:   sim.Micros(500),
		StorageBandwidth: 2e9,
	}
}

// New builds a cluster of the given nodes. Node i gets ID i.
func New(specs []NodeSpec, cfg Config) (*Cluster, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("cluster: need at least one node")
	}
	c := &Cluster{
		Net:     NewNetwork(cfg.NetLatency, cfg.NetBandwidth),
		Storage: NewStorage(cfg.StorageLatency, cfg.StorageBandwidth),
	}
	for i, s := range specs {
		if _, err := c.AddNode(s); err != nil {
			return nil, fmt.Errorf("node %d: %w", i, err)
		}
	}
	return c, nil
}

// AddNode appends one node (ID = current count) and folds its hardware
// into the aggregate counters. This is the join path under elastic fleets:
// capacity arriving mid-run registers here before it takes work.
func (c *Cluster) AddNode(s NodeSpec) (*Node, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	i := len(c.Nodes)
	name := fmt.Sprintf("node%d", i)
	n := &Node{
		ID:    i,
		Spec:  s,
		CPU:   sim.NewResource(name+"/cpu", s.Cores),
		IO:    sim.NewResource(name+"/io", 1),
		NIC:   sim.NewResource(name+"/nic", 1),
		Inbox: sim.NewMailbox[Message](name + "/inbox"),
		name:  name,
		net:   c.Net,
	}
	for g, m := range s.GPUs {
		d := gpu.New(fmt.Sprintf("%s/gpu%d", name, g), m)
		n.GPUs = append(n.GPUs, d)
		c.totalGPUs++
		c.totalSpeed += d.Speed
	}
	c.Nodes = append(c.Nodes, n)
	return n, nil
}

// Node returns node id, or nil when out of range. IDs are dense, so the
// lookup is an index — O(1) regardless of fleet size or churn history.
func (c *Cluster) Node(id int) *Node {
	if id < 0 || id >= len(c.Nodes) {
		return nil
	}
	return c.Nodes[id]
}

// TotalGPUs returns the number of devices across all nodes. O(1): the
// count is maintained incrementally by AddNode.
func (c *Cluster) TotalGPUs() int { return c.totalGPUs }

// TotalSpeed returns the sum of relative GPU speeds, used by the
// performance model to compute the heterogeneous lower bound. O(1): the
// sum is maintained incrementally by AddNode.
func (c *Cluster) TotalSpeed() float64 { return c.totalSpeed }
