package jobspec

import (
	"bytes"
	"testing"

	"rocket/internal/pairstore"
	"rocket/internal/sched"
)

func TestSpecStoreFieldsRoundTrip(t *testing.T) {
	m := Manifest{
		Nodes: 2,
		Seed:  1,
		Jobs: []Spec{
			{ID: "base", App: "forensics", Items: 10, Seed: 7,
				Store: "corpus", DatasetVersion: 10},
			{ID: "delta", App: "forensics", Items: 12, Seed: 7, ArrivalMS: 500,
				Store: "corpus", DatasetVersion: 12, BaseVersion: 10},
		},
	}
	buf, err := m.JSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Parse(buf)
	if err != nil {
		t.Fatal(err)
	}
	d := back.Jobs[1]
	if d.Store != "corpus" || d.DatasetVersion != 12 || d.BaseVersion != 10 {
		t.Fatalf("store fields lost: %+v", d)
	}
}

func TestSpecStoreValidation(t *testing.T) {
	cases := []Spec{
		{App: "forensics", Items: 8, BaseVersion: 4},              // base without store
		{App: "forensics", Items: 8, Store: "s", BaseVersion: -1}, // negative
		{App: "forensics", Items: 8, Store: "s", BaseVersion: 9},  // beyond items
	}
	for i, s := range cases {
		if _, err := s.Job(0, 1); err == nil {
			t.Errorf("case %d: invalid store spec accepted", i)
		}
	}
}

func TestSpecJobCarriesStoreWiring(t *testing.T) {
	s := Spec{App: "forensics", Items: 12, Seed: 7, Store: "corpus", BaseVersion: 10}
	j, err := s.Job(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if j.StoreRef != "corpus" || j.BaseItems != 10 || j.DatasetVersion != 12 {
		t.Fatalf("job wiring: %+v", j)
	}
	if j.Digest == nil {
		t.Fatal("no digest function attached")
	}
	// The digest is the canonical dataset lineage: same key regardless
	// of submission index, since the seed is explicit.
	j2, err := s.Job(5, 99)
	if err != nil {
		t.Fatal(err)
	}
	if j.Digest(3) != j2.Digest(3) {
		t.Fatal("digest depends on submission index despite an explicit seed")
	}
	if j.Digest(3) != pairstore.DigestItem("corpus", "forensics", 7, 3) {
		t.Fatal("digest does not match the canonical lineage")
	}
}

func TestManifestIncrementalFleetServesBasePairs(t *testing.T) {
	m := Manifest{
		Nodes: 2,
		Seed:  1,
		Jobs: []Spec{
			{ID: "base", App: "forensics", Items: 10, Seed: 7,
				Store: "corpus", DatasetVersion: 10},
			{ID: "delta", App: "forensics", Items: 12, Seed: 7, ArrivalMS: 1e6,
				Store: "corpus", DatasetVersion: 12, BaseVersion: 10},
		},
	}
	cfg, err := m.Config()
	if err != nil {
		t.Fatal(err)
	}
	fm, err := sched.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	basePairs := uint64(10 * 9 / 2)
	if fm.Jobs[1].Inner.StoreHits != basePairs {
		t.Fatalf("delta hit %d pairs, want %d", fm.Jobs[1].Inner.StoreHits, basePairs)
	}
	if fm.Jobs[1].Inner.Pairs != uint64(pairstore.DeltaPairs(12, 10)) {
		t.Fatalf("delta computed %d pairs", fm.Jobs[1].Inner.Pairs)
	}
}

func TestNormalizeSortsOutOfOrderArrivals(t *testing.T) {
	m := Manifest{Jobs: []Spec{
		{ID: "c", App: "forensics", Items: 8, ArrivalNS: 300},
		{ID: "a", App: "forensics", Items: 8, ArrivalNS: 100},
		{ID: "b1", App: "forensics", Items: 8, ArrivalNS: 200},
		{ID: "b2", App: "microscopy", Items: 8, ArrivalNS: 200},
	}}
	if m.arrivalsOrdered() {
		t.Fatal("out-of-order manifest reported ordered")
	}
	if !m.Normalize() {
		t.Fatal("Normalize reported no change")
	}
	order := []string{"a", "b1", "b2", "c"}
	for i, want := range order {
		if m.Jobs[i].ID != want {
			t.Fatalf("position %d = %s, want %s (stable ties)", i, m.Jobs[i].ID, want)
		}
	}
	if m.Normalize() {
		t.Fatal("Normalize of an ordered manifest reported a change")
	}
}

// TestNormalizedReplayIsOrderInvariant is the regression test for the
// divergent-replay bug: feeding the same arrival log with its entries
// permuted used to derive different job identities (index-derived IDs
// and seeds) and therefore different fleet metrics. After Normalize,
// any permutation replays byte-identically.
func TestNormalizedReplayIsOrderInvariant(t *testing.T) {
	mk := func(order []int) Manifest {
		// Specs with derived IDs and seeds — the sensitive case.
		all := []Spec{
			{App: "forensics", Items: 8, ArrivalNS: 100},
			{App: "microscopy", Items: 6, ArrivalNS: 200},
			{App: "bioinformatics", Items: 7, ArrivalNS: 300},
		}
		m := Manifest{Nodes: 2, Seed: 5}
		for _, i := range order {
			m.Jobs = append(m.Jobs, all[i])
		}
		return m
	}
	replay := func(m Manifest) []byte {
		m.Normalize()
		cfg, err := m.Config()
		if err != nil {
			t.Fatal(err)
		}
		fm, err := sched.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		buf, err := fm.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return buf
	}
	sorted := replay(mk([]int{0, 1, 2}))
	shuffled := replay(mk([]int{2, 0, 1}))
	if !bytes.Equal(sorted, shuffled) {
		t.Fatalf("permuted log replays differently:\n%s\nvs\n%s", sorted, shuffled)
	}
}
