package pairstore

// The second half of a segment build. Filling a block's columns is
// cheap; adding its keys to the bloom filter, encoding its payload and
// deflating it is not. A build of more than one block therefore hands
// each full block to a finisher goroutine and goes on filling the next,
// so a seal or tier merge runs on two cores. One finisher serves one
// build, in submission order, and exits when the build finishes: builds
// of different stores never queue behind each other, and no finished
// build leaves a goroutine behind. Finishers — their job slots and their
// deflater — are pooled, so a steady stream of builds allocates nothing
// here.

// finisherSlots is how many blocks a build keeps in hand: one being
// filled while the others are finished or wait to be.
const finisherSlots = 4

// blockJob is one block on its way through a build: the columns the
// producer fills, then the payload and the framed bytes complete makes
// of them, and the block's fences.
type blockJob struct {
	a, b        []uint64 // dictionary indices
	tomb        []bool
	ver         []int64
	vlen        []int
	vals        []byte
	payload     []byte // the encoded columns, before framing
	out         []byte // the framed block
	first, last Key
}

// reset empties the job's columns, keeping their capacity.
func (j *blockJob) reset() {
	j.a, j.b, j.tomb, j.ver, j.vlen, j.vals = j.a[:0], j.b[:0], j.tomb[:0], j.ver[:0], j.vlen[:0], j.vals[:0]
}

// finisher completes the blocks of one build at a time. Its goroutine
// runs only while an asynchronous build lasts; inline builds use its
// slots and deflater without it. It never takes the store lock, so a
// seal may wait on it while holding that lock. Both channels hold one
// message per slot, so no send blocks: at most every slot is in flight.
type finisher struct {
	jobs  chan *blockJob // submitted blocks; nil ends the build
	done  chan *blockJob // completed blocks, in submission order; nil acknowledges the end
	b     *segBuilder    // the build being served, set before the goroutine starts
	slots [finisherSlots]blockJob
	z     deflater
}

// idleFinishers holds finishers between builds. A build that finds none
// makes one; one released into a full pool is dropped. Four covers the
// builds a few stores seal at once while bounding what idle finishers
// keep, about 1.6 MB each.
var idleFinishers = make(chan *finisher, 4)

// finisherHandoff gives a freshly started finisher goroutine its
// finisher. The go statement then captures nothing, so it allocates
// nothing: each start sends exactly one finisher, and whichever waiting
// goroutine takes it serves that build.
var finisherHandoff = make(chan *finisher)

func acquireFinisher() *finisher {
	select {
	case f := <-idleFinishers:
		return f
	default:
		return &finisher{
			jobs: make(chan *blockJob, finisherSlots),
			done: make(chan *blockJob, finisherSlots),
		}
	}
}

func (f *finisher) release() {
	f.b = nil
	select {
	case idleFinishers <- f:
	default:
	}
}

// start runs f's goroutine for build b.
func (f *finisher) start(b *segBuilder) {
	f.b = b
	go finishBlocks()
	finisherHandoff <- f
}

// stop ends the build: the goroutine has returned once it acknowledges.
func (f *finisher) stop() {
	f.jobs <- nil
	<-f.done
}

// finishBlocks is a finisher goroutine: it completes one build's blocks
// in the order they arrive and returns when the build ends.
func finishBlocks() {
	f := <-finisherHandoff
	for j := range f.jobs {
		if j == nil {
			f.done <- nil
			return
		}
		f.b.complete(j)
		f.done <- j
	}
}
