package phylo

import (
	"fmt"
	"strings"
)

// Node is a binary phylogenetic tree node. Leaves have Species >= 0 and no
// children; internal nodes carry the merge height.
type Node struct {
	Species     int // leaf: species index; internal: -1
	Left, Right *Node
	Height      float64
}

// isLeaf reports whether the node is a leaf.
func (n *Node) isLeaf() bool { return n.Left == nil && n.Right == nil }

// Leaves returns the species indices under the node in left-to-right
// order.
func (n *Node) Leaves() []int {
	if n.isLeaf() {
		return []int{n.Species}
	}
	return append(n.Left.Leaves(), n.Right.Leaves()...)
}

// Newick renders the tree in Newick format with the given leaf names.
func (n *Node) Newick(names []string) string {
	var b strings.Builder
	n.newick(&b, names)
	b.WriteByte(';')
	return b.String()
}

func (n *Node) newick(b *strings.Builder, names []string) {
	if n.isLeaf() {
		if n.Species < len(names) {
			b.WriteString(names[n.Species])
		} else {
			fmt.Fprintf(b, "sp%d", n.Species)
		}
		return
	}
	b.WriteByte('(')
	n.Left.newick(b, names)
	b.WriteByte(',')
	n.Right.newick(b, names)
	fmt.Fprintf(b, "):%.4f", n.Height)
}

// NeighborJoining builds an (arbitrarily rooted) tree from a full
// symmetric distance matrix with the Saitou-Nei neighbor-joining
// algorithm, the standard method for distance-based phylogenies and the
// one commonly paired with composition-vector distances. Unlike UPGMA it
// does not assume a molecular clock. Heights on internal nodes carry the
// Q-criterion merge order (monotone bookkeeping, not branch lengths).
func NeighborJoining(dist [][]float64) (*Node, error) {
	n := len(dist)
	if n == 0 {
		return nil, fmt.Errorf("phylo: empty distance matrix")
	}
	for i := range dist {
		if len(dist[i]) != n {
			return nil, fmt.Errorf("phylo: distance matrix row %d has %d entries, want %d", i, len(dist[i]), n)
		}
	}
	nodes := make([]*Node, n)
	for i := range nodes {
		nodes[i] = &Node{Species: i}
	}
	// Work on a copy; live tracks active cluster indices.
	d := make([][]float64, n)
	for i := range d {
		d[i] = append([]float64(nil), dist[i]...)
	}
	live := make([]int, n)
	for i := range live {
		live[i] = i
	}
	merge := 0
	for len(live) > 2 {
		r := len(live)
		// Row sums over live entries.
		sums := make(map[int]float64, r)
		for _, x := range live {
			for _, y := range live {
				sums[x] += d[x][y]
			}
		}
		// Minimize Q(i, j) = (r-2) d(i,j) - sum_i - sum_j.
		bi, bj := 0, 1
		best := 0.0
		first := true
		for x := 0; x < len(live); x++ {
			for y := x + 1; y < len(live); y++ {
				a, b := live[x], live[y]
				q := float64(r-2)*d[a][b] - sums[a] - sums[b]
				if first || q < best {
					best, bi, bj, first = q, x, y, false
				}
			}
		}
		a, b := live[bi], live[bj]
		merge++
		parent := &Node{Species: -1, Left: nodes[a], Right: nodes[b], Height: float64(merge)}
		// Distances from the new cluster to the rest.
		for _, x := range live {
			if x == a || x == b {
				continue
			}
			d[a][x] = (d[a][x] + d[b][x] - d[a][b]) / 2
			d[x][a] = d[a][x]
		}
		nodes[a] = parent
		live = append(live[:bj], live[bj+1:]...)
	}
	if len(live) == 1 {
		return nodes[live[0]], nil
	}
	merge++
	return &Node{
		Species: -1,
		Left:    nodes[live[0]],
		Right:   nodes[live[1]],
		Height:  float64(merge),
	}, nil
}

// UPGMA builds a tree from a full symmetric distance matrix by
// average-linkage hierarchical clustering — the paper's method for turning
// the all-pairs distance matrix into a phylogeny (§5.2).
func UPGMA(dist [][]float64) (*Node, error) {
	n := len(dist)
	if n == 0 {
		return nil, fmt.Errorf("phylo: empty distance matrix")
	}
	for i := range dist {
		if len(dist[i]) != n {
			return nil, fmt.Errorf("phylo: distance matrix row %d has %d entries, want %d", i, len(dist[i]), n)
		}
	}
	type clust struct {
		node *Node
		size int
	}
	clusters := make([]*clust, n)
	for i := 0; i < n; i++ {
		clusters[i] = &clust{node: &Node{Species: i}, size: 1}
	}
	// Work on a copy of the matrix; row/col indices track live clusters.
	d := make([][]float64, n)
	for i := range d {
		d[i] = append([]float64(nil), dist[i]...)
	}
	live := make([]int, n)
	for i := range live {
		live[i] = i
	}
	for len(live) > 1 {
		// Find the closest pair of live clusters (deterministic
		// tie-break: smallest indices).
		bi, bj := 0, 1
		best := d[live[0]][live[1]]
		for x := 0; x < len(live); x++ {
			for y := x + 1; y < len(live); y++ {
				if v := d[live[x]][live[y]]; v < best {
					best, bi, bj = v, x, y
				}
			}
		}
		a, b := live[bi], live[bj]
		merged := &clust{
			node: &Node{
				Species: -1,
				Left:    clusters[a].node,
				Right:   clusters[b].node,
				Height:  best / 2,
			},
			size: clusters[a].size + clusters[b].size,
		}
		// Average-linkage update into slot a.
		for _, x := range live {
			if x == a || x == b {
				continue
			}
			wa, wb := float64(clusters[a].size), float64(clusters[b].size)
			d[a][x] = (wa*d[a][x] + wb*d[b][x]) / (wa + wb)
			d[x][a] = d[a][x]
		}
		clusters[a] = merged
		live = append(live[:bj], live[bj+1:]...)
	}
	return clusters[live[0]].node, nil
}
