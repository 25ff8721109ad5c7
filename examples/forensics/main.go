// Forensics example: common-source camera identification with real PRNU
// kernels (§5.1) on a synthetic image collection.
//
// The example generates images from a handful of simulated cameras (each
// with its own sensor-noise fingerprint), runs the full Rocket pipeline —
// decode, noise extraction, all-pairs Normalized Cross Correlation — on a
// simulated GPU cluster, and then clusters the images by camera using the
// correlation scores.
//
//	go run ./examples/forensics
package main

import (
	"fmt"
	"log"

	"rocket"
	"rocket/internal/apps/forensics"
)

func main() {
	const (
		images  = 18
		cameras = 3
	)
	app, err := forensics.NewReal(forensics.RealParams{
		N:       images,
		Cameras: cameras,
		Seed:    7,
	})
	if err != nil {
		log.Fatal(err)
	}

	r := rocket.New(
		rocket.WithHomogeneous(2, rocket.DAS5Node(rocket.TitanXMaxwell)),
		rocket.WithDistCache(true),
		rocket.WithCollectResults(true),
		rocket.WithSeed(1),
	)
	m, err := r.Run(app)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("compared %d image pairs in %v simulated time (R = %.2f)\n\n",
		m.Pairs, m.Runtime, m.R)

	// Decision threshold between same-camera and different-camera scores.
	const threshold = 0.05
	scores := map[[2]int]float64{}
	for _, r := range m.Results {
		scores[[2]int{r.I, r.J}] = r.Value.(float64)
	}

	// Union-find clustering over above-threshold pairs.
	parent := make([]int, images)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	for pair, s := range scores {
		if s >= threshold {
			parent[find(pair[0])] = find(pair[1])
		}
	}

	// Group images by root; scanning in index order puts each group's
	// smallest member first and orders the groups by it, so the listing
	// is the same on every run.
	var groups [][]int
	groupOf := map[int]int{}
	for i := 0; i < images; i++ {
		root := find(i)
		g, ok := groupOf[root]
		if !ok {
			g = len(groups)
			groupOf[root] = g
			groups = append(groups, nil)
		}
		groups[g] = append(groups[g], i)
	}
	fmt.Printf("recovered %d source groups (true cameras: %d):\n", len(groups), cameras)
	correct := true
	for _, members := range groups {
		fmt.Printf("  group %2d:", members[0])
		for _, img := range members {
			fmt.Printf(" img%02d(cam%d)", img, app.Camera(img))
			if app.Camera(img) != app.Camera(members[0]) {
				correct = false
			}
		}
		fmt.Println()
	}
	if correct && len(groups) == cameras {
		fmt.Println("\nall images correctly attributed to their source cameras")
	} else {
		fmt.Println("\nwarning: attribution imperfect (tune threshold or image size)")
	}
}
