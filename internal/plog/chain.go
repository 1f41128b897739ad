package plog

// Delta-chain compaction records (DESIGN.md §3.8). A KindDelta record
// has the same 3-word inline payload as a snapshot — {bodyAddr,
// bodyWords, bodySum} — but its body carries a chain frame in front of
// the caller's payload:
//
//	[0] bodyKind   0 = chain base (full snapshot), 1 = delta
//	[1] execIdx    must equal the record's execution index
//	[2] prevAddr   body address of the chain predecessor (0 for a base)
//	[3] prevWords  predecessor body length in words
//	[4] prevSum    predecessor body checksum
//	[5...] payload (core's encoded snapshot or delta)
//
// bodySum covers the whole frame, so the back-reference is transitively
// chained: a delta only verifies if its predecessor's exact bytes
// verify too, giving delta chains the same "torn = never appended"
// semantics as single records. The single fence of the append covers
// the body lines and the record lines together, exactly like
// AppendSnapshot.
//
// Chain bodies live in dedicated regions, NOT the ping-pong snapshot
// regions: a ping-pong region is overwritten every other snapshot,
// which would destroy a chain base that later deltas still reference.
// Regions are recycled through a free list only once a NEW base record
// has been fenced (the old chain is then unreachable from the live
// head); regions of a chain that was live at a crash are leaked — the
// pool is a bump allocator and the leak is one chain per crash.
//
// Unlike snapshot cuts, a delta cut truncates the log fully: the chain
// stays reachable through body back-references, so the log itself never
// has to retain the base's record. Truncate refuses to drop the newest
// chain record (that WOULD orphan the chain).

import (
	"errors"
	"fmt"

	"repro/internal/pmem"
)

// Chain body frame word offsets.
const (
	cbKind      = 0
	cbExec      = 1
	cbPrevAddr  = 2
	cbPrevWords = 3
	cbPrevSum   = 4
	cbHdrWords  = 5
)

// Body kinds.
const (
	chainBodyBase  = 0
	chainBodyDelta = 1
)

// maxChainLinks bounds ResolveChain walks over untrusted back-
// references: the strictly-decreasing execIdx rule already guarantees
// termination, but a forged chain could still demand millions of body
// reads before failing. No legitimate policy builds chains remotely
// this long.
const maxChainLinks = 4096

// ErrChain covers delta-chain resolution failures: a back-reference
// that points out of bounds, a predecessor body whose checksum does not
// match the reference, or a chain with no base.
var ErrChain = errors.New("plog: delta chain unresolvable")

// chainLink is one resolved chain body (volatile bookkeeping).
type chainLink struct {
	execIdx uint64
	addr    pmem.Addr
	words   int    // body words (frame + payload)
	sum     uint64 // checksum over the body
	cap     int    // region capacity for reuse; 0 = unknown (post-crash)
	base    bool
}

// chainRegion is a reusable body region.
type chainRegion struct {
	addr pmem.Addr
	cap  int
}

// ChainElem is one element of a resolved chain, base first.
type ChainElem struct {
	ExecIdx uint64
	Base    bool
	// Payload is the caller's words (the frame stripped).
	Payload []uint64
}

// ChainLen returns the number of live chain links (base included), 0
// when no chain is live.
func (l *Log) ChainLen() int { return len(l.chain) }

// ChainHead returns the execution index of the newest chain link (the
// index the chain's folded state covers), or 0 when no chain is live.
func (l *Log) ChainHead() uint64 {
	if len(l.chain) == 0 {
		return 0
	}
	return l.chain[len(l.chain)-1].execIdx
}

// ChainDeltaWords returns the total payload words of the delta links
// since the chain's base — the accumulated churn the collapse policy
// prices against the state size.
func (l *Log) ChainDeltaWords() int {
	w := 0
	for _, c := range l.chain {
		if !c.base {
			w += c.words - cbHdrWords
		}
	}
	return w
}

// allocBody claims a region of at least need words for a chain body:
// the free list first, a fresh allocation otherwise (with headroom,
// like the snapshot regions).
func (l *Log) allocBody(need int) (pmem.Addr, int, error) {
	for i, r := range l.chainPool {
		if r.cap >= need {
			l.chainPool = append(l.chainPool[:i], l.chainPool[i+1:]...)
			return r.addr, r.cap, nil
		}
	}
	cap := need
	if cap < 64 {
		cap = 64
	}
	cap *= 2
	a, err := l.pool.Alloc(cap * pmem.WordSize)
	if err != nil {
		return 0, 0, err
	}
	return a, cap, nil
}

// releaseChain returns every reusable region of the live chain to the
// free list and forgets the links. Called once a fresh base (chain or
// plain snapshot) has been fenced.
func (l *Log) releaseChain() {
	for _, c := range l.chain {
		if c.cap > 0 {
			l.chainPool = append(l.chainPool, chainRegion{addr: c.addr, cap: c.cap})
		}
	}
	l.chain = l.chain[:0]
}

// appendChainBody writes one chain body and its KindDelta record,
// durable under the append's single fence. prev* is zero for a base.
// The frame and the caller's payload go to NVM as two stores, and the
// body checksum runs across both: the words are those of the frame and
// payload concatenated, without ever copying the payload.
func (l *Log) appendChainBody(bodyKind uint64, payload []uint64, execIdx uint64, prev chainLink) (uint64, chainLink, error) {
	frame := [cbHdrWords]uint64{bodyKind, execIdx, uint64(prev.addr), uint64(prev.words), prev.sum}
	words := cbHdrWords + len(payload)
	addr, cap, err := l.allocBody(words)
	if err != nil {
		return 0, chainLink{}, err
	}
	l.pool.StoreRange(l.pid, addr, frame[:])
	l.pool.StoreRange(l.pid, addr+cbHdrWords*pmem.WordSize, payload)
	l.pool.FlushRange(l.pid, addr, words*pmem.WordSize)
	sum := sumFinal(sumWords(sumWords(sumSeed, frame[:]), payload))
	rec := [...]uint64{uint64(addr), uint64(words), sum}
	seq, err := l.appendRecord(KindDelta, uint64(len(rec)), execIdx, rec[:])
	if err != nil {
		// The claimed region was never referenced by a fenced record:
		// hand it straight back.
		l.chainPool = append(l.chainPool, chainRegion{addr: addr, cap: cap})
		return 0, chainLink{}, err
	}
	return seq, chainLink{
		execIdx: execIdx, addr: addr, words: words, sum: sum,
		cap: cap, base: bodyKind == chainBodyBase,
	}, nil
}

// AppendChainBase starts a fresh delta chain: payload is a full
// snapshot encoding taken at execIdx. On success the previous chain's
// regions become reusable. One persistent fence, like every append.
func (l *Log) AppendChainBase(payload []uint64, execIdx uint64) (uint64, error) {
	seq, link, err := l.appendChainBody(chainBodyBase, payload, execIdx, chainLink{})
	if err != nil {
		return 0, err
	}
	l.releaseChain()
	l.chain = append(l.chain, link)
	l.chainSeq = seq
	return seq, nil
}

// AppendDelta extends the live chain with a delta taken at execIdx
// (covering operations ChainHead()+1..execIdx). It fails if no chain is
// live — the caller must cut a base first.
func (l *Log) AppendDelta(payload []uint64, execIdx uint64) (uint64, error) {
	if len(l.chain) == 0 {
		return 0, fmt.Errorf("plog: AppendDelta without a live chain base")
	}
	tail := l.chain[len(l.chain)-1]
	if execIdx <= tail.execIdx {
		return 0, fmt.Errorf("plog: delta at index %d does not extend chain head %d", execIdx, tail.execIdx)
	}
	seq, link, err := l.appendChainBody(chainBodyDelta, payload, execIdx, tail)
	if err != nil {
		return 0, err
	}
	l.chain = append(l.chain, link)
	l.chainSeq = seq
	return seq, nil
}

// readChainBody reads and validates one body at an untrusted
// (addr, words, sum) reference.
func (l *Log) readChainBody(addr pmem.Addr, words int, sum uint64, rd wordReader) ([]uint64, error) {
	if words < cbHdrWords+1 || words > (1<<28) || !l.pool.Contains(addr, words*pmem.WordSize) {
		return nil, ErrChain
	}
	body := make([]uint64, words)
	for i := range body {
		body[i] = rd(addr + pmem.Addr(i*pmem.WordSize))
	}
	if checksum(body) != sum || body[cbKind] > chainBodyDelta {
		return nil, ErrChain
	}
	return body, nil
}

// resolveLinks walks rec's chain back to its base, validating every
// back-reference as untrusted input: bounds-checked pointers, exact
// body checksums (each delta's prevSum pins its predecessor's bytes)
// and strictly decreasing execution indices. Returns links and bodies
// base-first.
func (l *Log) resolveLinks(rec Record, rd wordReader) ([]chainLink, [][]uint64, error) {
	if rec.Kind != KindDelta || len(rec.Body) == 0 {
		return nil, nil, ErrChain
	}
	var links []chainLink
	var bodies [][]uint64
	body := rec.Body
	link := chainLink{
		execIdx: body[cbExec], addr: rec.bodyAddr, words: len(body),
		sum: checksum(body), base: body[cbKind] == chainBodyBase,
	}
	for {
		links = append(links, link)
		bodies = append(bodies, body)
		if link.base {
			break
		}
		if len(links) >= maxChainLinks {
			return nil, nil, ErrChain
		}
		prevAddr := pmem.Addr(body[cbPrevAddr])
		prevWords := int(body[cbPrevWords])
		prevSum := body[cbPrevSum]
		prev, err := l.readChainBody(prevAddr, prevWords, prevSum, rd)
		if err != nil {
			return nil, nil, err
		}
		if prev[cbExec] >= link.execIdx {
			return nil, nil, ErrChain
		}
		body = prev
		link = chainLink{
			execIdx: body[cbExec], addr: prevAddr, words: prevWords,
			sum: prevSum, base: body[cbKind] == chainBodyBase,
		}
	}
	// Reverse to base-first.
	for i, j := 0, len(links)-1; i < j; i, j = i+1, j-1 {
		links[i], links[j] = links[j], links[i]
		bodies[i], bodies[j] = bodies[j], bodies[i]
	}
	return links, bodies, nil
}

// ResolveChain resolves a KindDelta record to its full chain, base
// first, reading through the cache (the recovery path). Every element
// carries the caller payload with the chain frame stripped.
func (l *Log) ResolveChain(rec Record) ([]ChainElem, error) {
	links, bodies, err := l.resolveLinks(rec, l.cachedReader())
	if err != nil {
		return nil, err
	}
	elems := make([]ChainElem, len(links))
	for i := range links {
		elems[i] = ChainElem{
			ExecIdx: links[i].execIdx,
			Base:    links[i].base,
			Payload: bodies[i][cbHdrWords:],
		}
	}
	return elems, nil
}

// rebuildChain reconstructs the volatile chain state from the live
// records after Open: the newest KindDelta record defines the chain. An
// unresolvable chain leaves the state empty — the log stays usable and
// the next cut starts a fresh base; recovery surfaces the damage
// through its own resolution attempt.
func (l *Log) rebuildChain(recs []Record) {
	l.chain = l.chain[:0]
	l.chainSeq = 0
	for i := len(recs) - 1; i >= 0; i-- {
		if recs[i].Kind != KindDelta {
			continue
		}
		links, _, err := l.resolveLinks(recs[i], l.cachedReader())
		if err == nil {
			l.chain = links // caps are 0: post-crash regions are leaked
			l.chainSeq = recs[i].Seq
		}
		return
	}
}
