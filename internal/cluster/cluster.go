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

// DAS5Node returns the paper's DAS-5 node type: 16 cores and a 40 GiB host
// cache, with the given GPUs installed.
func DAS5Node(gpus ...gpu.Model) NodeSpec {
	return NodeSpec{Cores: 16, HostCacheBytes: 40 * gpu.GiB, GPUs: gpus}
}

// PaperTopology returns the four mixed-generation DAS-5 nodes of §6.5:
// node I (K20m), node II (GTX980 + TitanX Pascal), node III (2x
// RTX2080Ti), and node IV (GTX Titan + TitanX Pascal).
func PaperTopology() []NodeSpec {
	return []NodeSpec{
		DAS5Node(gpu.K20m),
		DAS5Node(gpu.GTX980, gpu.TitanXPascal),
		DAS5Node(gpu.RTX2080Ti, gpu.RTX2080Ti),
		DAS5Node(gpu.GTXTitan, gpu.TitanXPascal),
	}
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
	// name is the trace identifier, formatted once by addNode: trace and
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
// append-only (IDs are dense, node i at index i); grow it through addNode
// so totalSpeed stays consistent.
type Cluster struct {
	Nodes   []*Node
	Net     *Network
	Storage *Storage

	// totalSpeed is maintained incrementally: membership churn queries it
	// on every placement decision, so it must not rescan Nodes.
	totalSpeed float64
}

// The fabric is the paper's DAS-5 setup: 56 Gb/s FDR InfiniBand and a
// MinIO server on the same fabric.
const (
	// NetLatency is the one-way message latency (FDR InfiniBand ~ few us).
	NetLatency = 5 * sim.Microsecond
	// NetBandwidth is per-NIC bandwidth in bytes/second (56 Gb/s FDR = 7e9).
	NetBandwidth = 7e9
	// StorageLatency is the per-request overhead of the storage server.
	StorageLatency = 500 * sim.Microsecond
	// StorageBandwidth is the server's aggregate bandwidth in bytes/second,
	// shared by all nodes.
	StorageBandwidth = 2e9
)

// New builds a cluster of the given nodes on the DAS-5 fabric. Node i
// gets ID i.
func New(specs []NodeSpec) (*Cluster, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("cluster: need at least one node")
	}
	c := &Cluster{
		Net:     &Network{},
		Storage: &Storage{server: sim.NewResource("storage", 1)},
	}
	for i, s := range specs {
		if _, err := c.addNode(s); err != nil {
			return nil, fmt.Errorf("node %d: %w", i, err)
		}
	}
	return c, nil
}

// addNode appends one node (ID = current count) and folds its hardware
// into the aggregate counters. This is the join path under elastic fleets:
// capacity arriving mid-run registers here before it takes work.
func (c *Cluster) addNode(s NodeSpec) (*Node, error) {
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

// TotalSpeed returns the sum of relative GPU speeds, used by the
// performance model to compute the heterogeneous lower bound. O(1): the
// sum is maintained incrementally by addNode.
func (c *Cluster) TotalSpeed() float64 { return c.totalSpeed }
