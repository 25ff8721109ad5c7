package pairstore

import (
	"bytes"
	"slices"
	"sync"
	"testing"
)

// TestPipelinedBuildMatchesInline: a build whose blocks a finisher
// goroutine completes writes the bytes of one that completes them
// inline, block for block in submission order, and its bloom filter
// holds every key — those of the last, partial block too.
func TestPipelinedBuildMatchesInline(t *testing.T) {
	for _, n := range []int{blockRows + 1, 2 * blockRows, 5*blockRows + 123, 9*blockRows - 1} {
		rows := randRows(int64(n), n, 2*n)
		dict := segmentInput(rows)
		piped := newSegBuilder(1, dict, n)
		if !piped.async {
			t.Fatalf("%d rows: a multi-block build was not pipelined", n)
		}
		// Estimated at one block, a build finishes inline; its filter is
		// then sized as the pipelined one's.
		inline := newSegBuilder(1, dict, 1)
		inline.filter = newBloom(n)
		for _, r := range rows {
			piped.add(r)
			inline.add(r)
		}
		got, want := piped.finish(), inline.finish()
		if !bytes.Equal(got.encodeFile(nil), want.encodeFile(nil)) {
			t.Fatalf("%d rows: the pipelined build's file differs from the inline build's", n)
		}
		for i, r := range rows {
			if !got.filter.test(r.key) {
				t.Fatalf("%d rows: row %d (block %d of %d) is missing from the bloom filter", n, i, i/blockRows, len(got.blocks))
			}
		}
	}
}

// TestWarmBuildAllocatesOnlyItsSegment: with a finisher in the pool, a
// build allocates what the segment keeps — the builder, its bloom words,
// block index and data, and the segment — and nothing per block, inline
// or pipelined: the finisher, its goroutine, job slots and deflater are
// all reused.
func TestWarmBuildAllocatesOnlyItsSegment(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow allocations make allocation counts meaningless")
	}
	digest := DigestFunc("warm", "app", 1)
	for _, items := range []int{60, 100, 250} { // one block, two, eight
		var rows []row
		for i := 0; i < items; i++ {
			for j := i + 1; j < items; j++ {
				rows = append(rows, row{key: PairKey(digest, i, j), ver: items})
			}
		}
		dict := segmentInput(rows)
		build := func() {
			b := newSegBuilder(1, dict, len(rows))
			for _, r := range rows {
				b.add(r)
			}
			b.finish()
		}
		build()
		if got := testing.AllocsPerRun(5, build); got != 5 {
			t.Errorf("%d rows in %d blocks: a warm build made %v allocations, want 5",
				len(rows), (len(rows)+blockRows-1)/blockRows, got)
		}
	}
}

// TestReadersBesideBuilds: snapshots' HasMany and the store's Get answer
// exactly while another goroutine's ingest seals multi-block segments
// and merges tiers through the finishers (run under -race by make
// race-stress).
func TestReadersBesideBuilds(t *testing.T) {
	digest := DigestFunc("readers", "app", 3)
	const base, items = 60, 220
	s := New()
	s.SetAutoSealThreshold(4500) // two-block seals, a tier merge of 18 000 rows
	var live, absent []Key
	for j := 1; j < base; j++ {
		for i := 0; i < j; i++ {
			s.Put(Entry{Key: PairKey(digest, i, j), Version: base})
			live = append(live, PairKey(digest, i, j))
		}
	}
	s.Seal()
	for i := 0; i < 500; i++ {
		absent = append(absent, PairKey(digest, items+i, i))
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for j := base; j < items; j++ {
			b := NewBatch()
			for i := 0; i < j; i++ {
				b.Add(Entry{Key: PairKey(digest, i, j), Version: items})
			}
			if j%2 == 0 {
				s.Merge(b)
			} else {
				for _, c := range b.chunks {
					for _, e := range c {
						s.Put(e)
					}
				}
			}
		}
		s.Seal()
	}()
	errs := make(chan string, 2)
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			out := make([]bool, len(live))
			for round := 0; ; round++ {
				select {
				case <-stop:
					if round > 0 {
						return
					}
				default:
				}
				s.Snapshot().HasMany(live, out)
				if slices.Contains(out, false) {
					errs <- "HasMany lost a base pair"
					return
				}
				s.Snapshot().HasMany(absent, out[:len(absent)])
				if slices.Contains(out[:len(absent)], true) {
					errs <- "HasMany found an absent pair"
					return
				}
				if _, ok := s.Get(live[(round*7919+r)%len(live)]); !ok {
					errs <- "Get lost a base pair"
					return
				}
				if _, ok := s.Get(absent[round%len(absent)]); ok {
					errs <- "Get found an absent pair"
					return
				}
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	st := s.Stats()
	if st.Compactions == 0 || st.Entries != items*(items-1)/2 {
		t.Fatalf("ingest beside readers: %d tier merges, %d entries, want some and %d", st.Compactions, st.Entries, items*(items-1)/2)
	}
}
