package main

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math/big"
	"slices"
	"strings"
	"sync"
	"time"

	"slicer/internal/chain"
	"slicer/internal/contract"
	"slicer/internal/core"
	"slicer/internal/obs"
	"slicer/internal/wire"
	"slicer/internal/workload"
)

// Client-side phases of one fair-exchange search round, in order. Each is
// timed around calls into one layer's public functions.
const (
	phToken   = iota // User.Token
	phEscrow         // TokensHash + Nonce + Mine(request)
	phSearch         // CloudClient.Search
	phEncode         // contract.SubmitData
	phSettle         // Nonce + Mine(submit), on-chain verify included
	phDecrypt        // User.Decrypt
	phRetry          // waiting for the next SetAc after a stale-Ac revert
	nPhases
)

// phaseNames are the phases' span names.
var phaseNames = [nPhases]string{"core.token", "chain.escrow", "wire.search", "contract.submit_encode", "chain.settle", "core.decrypt", "chain.stale_wait"}

const rpcsRound = 1 + 2*(1+3) // search + two (Nonce + Submit/Step/Receipt)

// roundSample is one timed search round.
type roundSample struct {
	total   time.Duration // round start to decrypt end
	late    time.Duration // round start − when it was due
	phases  [nPhases]time.Duration
	tokens  int
	results int
	gas     uint64
	rpcs    int
	retries int
	trace   *obs.Trace // nil for untraced rounds
}

// acBook tracks which accumulation value the cloud and the contract hold
// while an owner inserts concurrently with searches. Version 0 is the Ac of
// the initial Build; version v is the Ac after the v-th insert batch.
type acBook struct {
	mu       sync.Mutex
	cond     *sync.Cond
	acs      []*big.Int // by version
	cloud    int        // versions the cloud has acknowledged
	updating bool       // an Update RPC is in flight (acs[cloud+1] pending)
	onChain  int        // version whose digest the contract holds
	closed   bool
}

func newAcBook(base *big.Int) *acBook {
	b := &acBook{acs: []*big.Int{base}}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *acBook) beginUpdate(ac *big.Int) {
	b.mu.Lock()
	b.acs = append(b.acs, ac)
	b.updating = true
	b.mu.Unlock()
}

func (b *acBook) endUpdate() {
	b.mu.Lock()
	b.cloud++
	b.updating = false
	b.mu.Unlock()
}

func (b *acBook) chainUpdated() {
	b.mu.Lock()
	b.onChain = b.cloud
	b.cond.Broadcast()
	b.mu.Unlock()
}

// close wakes every waiter for good (the owner has stopped inserting).
func (b *acBook) close() {
	b.mu.Lock()
	b.closed = true
	b.cond.Broadcast()
	b.mu.Unlock()
}

// view reports the cloud's acknowledged version and whether an update is
// in flight.
func (b *acBook) view() (int, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.cloud, b.updating
}

// candidates lists, newest first, the Ac values the cloud may have held
// between versions v0 and v1, an in-flight update included.
func (b *acBook) candidates(v0, v1 int) []*big.Int {
	b.mu.Lock()
	defer b.mu.Unlock()
	var out []*big.Int
	for v := len(b.acs) - 1; v >= v0; v-- {
		if v <= v1+1 {
			out = append(out, b.acs[v])
		}
	}
	return out
}

// version is the version whose Ac is ac (0 when none is).
func (b *acBook) version(ac *big.Int) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	for v := len(b.acs) - 1; v >= 0; v-- {
		if b.acs[v].Cmp(ac) == 0 {
			return v
		}
	}
	return 0
}

func (b *acBook) ac(v int) *big.Int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.acs[v]
}

// waitChain blocks until the contract holds version v or a later one and
// returns the on-chain version. It returns -1 once the book is closed with
// v still not on chain.
func (b *acBook) waitChain(v int) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	for b.onChain < v && !b.closed {
		b.cond.Wait()
	}
	if b.onChain < v {
		return -1
	}
	return b.onChain
}

// userView is a data user and the records its trapdoor dictionary covers:
// the ground truth its decrypted results are checked against.
type userView struct {
	user *core.User
	db   []core.Record
}

// session is one client goroutine's connections to the deployment. The
// goroutine plays the data user and, for result submission, the cloud's
// chain account, as the repository's own CLI round does.
type session struct {
	d     *deployment
	cloud *wire.CloudClient
	chain *wire.ChainClient
	book  *acBook
	seq   uint64
	seed  int64
}

func newSession(d *deployment, book *acBook, seed int64) (*session, error) {
	cc, err := wire.DialCloud(d.front.addr)
	if err != nil {
		return nil, err
	}
	ch, err := wire.DialChain(d.chainSrv.addr)
	if err != nil {
		cc.Close()
		return nil, err
	}
	return &session{d: d, cloud: cc, chain: ch, book: book, seed: seed}, nil
}

// cloudVia redirects the session's cloud connection (used to put the
// delay proxy in front of the cloud).
func (s *session) cloudVia(addr string) error {
	cc, err := wire.DialCloud(addr)
	if err != nil {
		return err
	}
	s.cloud.Close()
	s.cloud = cc
	return nil
}

func (s *session) close() {
	s.cloud.Close()
	s.chain.Close()
}

// reqID derives a unique, reproducible request ID for the session's next
// round.
func (s *session) reqID() chain.Hash {
	s.seq++
	var b [16]byte
	binary.BigEndian.PutUint64(b[:8], uint64(s.seed))
	binary.BigEndian.PutUint64(b[8:], s.seq)
	return chain.Hash(sha256.Sum256(append([]byte("perfbench-request"), b[:]...)))
}

// latency is the round's time as its user sees it: from when it was due
// for a paced stream, from its start for a closed loop.
func (s *roundSample) latency(paced bool) time.Duration {
	if paced {
		return s.late + s.total
	}
	return s.total
}

// round runs one fair exchange — token, escrow, cloud search, submission
// with on-chain verification, settle, decrypt — and checks the decrypted
// IDs against the plaintext answer over the records the user's view
// covers. A tampering round drops one encrypted handle from the response
// before submission and must be refunded instead. due is when the round
// was scheduled (zero: now). traced rounds propagate a trace context to
// the servers and splice their spans in.
func (s *session) round(u *userView, q core.Query, due time.Time, traced, tamper bool) (*roundSample, error) {
	var tr *obs.Trace
	if traced {
		tr = obs.NewTrace("search")
	}
	smp := &roundSample{trace: tr, rpcs: rpcsRound}
	start := time.Now()
	if due.IsZero() || due.After(start) {
		due = start
	}
	smp.late = start.Sub(due)
	// begin times one client phase into the sample and, when traced, a span.
	begin := func(i int) func() {
		endSpan := tr.Span(phaseNames[i])
		t := time.Now()
		return func() {
			smp.phases[i] += time.Since(t)
			endSpan()
		}
	}

	end := begin(phToken)
	req, err := u.user.Token(q)
	end()
	if err != nil {
		return nil, fmt.Errorf("token: %w", err)
	}
	smp.tokens = len(req.Tokens)

	reqID := s.reqID()
	end = begin(phEscrow)
	rc, err := s.escrow(reqID, req, tr)
	end()
	if err != nil {
		return nil, err
	}

	search := func() (*core.SearchResponse, *big.Int, error) {
		v0, up0 := s.book.view()
		end := begin(phSearch)
		resp, err := s.cloud.SearchTraced(req, tr)
		end()
		if err != nil {
			return nil, nil, fmt.Errorf("cloud search: %w", err)
		}
		v1, up1 := s.book.view()
		ac, err := s.servedAc(req, resp, v0, v1, up0 || up1)
		if tamper {
			dropOneER(resp)
		}
		return resp, ac, err
	}
	resp, ac, err := search()
	if err != nil {
		return nil, err
	}
	for _, r := range resp.Results {
		smp.results += len(r.ER)
	}

	for attempt := 0; ; attempt++ {
		end = begin(phEncode)
		data, err := contract.SubmitData(reqID, s.d.accPub, ac, resp.Results)
		end()
		if err != nil {
			return nil, err
		}
		end = begin(phSettle)
		rc, err = s.submit(data, tr)
		end()
		if err != nil {
			return nil, err
		}
		if rc.Status {
			break
		}
		if !strings.Contains(rc.Err, "stale") || attempt >= 100 {
			return nil, fmt.Errorf("submission reverted: %s", rc.Err)
		}
		// The contract's documented retry path: the Ac the witnesses were
		// served against is not the one on chain. Wait for the owner's next
		// SetAc; if the chain moved past the served Ac, search again.
		smp.retries++
		smp.rpcs += 4
		v := s.book.version(ac)
		end = begin(phRetry)
		onChain := s.book.waitChain(v)
		end()
		if onChain < 0 {
			return nil, fmt.Errorf("submission stale and the owner stopped before Ac version %d reached the chain", v)
		}
		if onChain > v {
			if resp, ac, err = search(); err != nil {
				return nil, err
			}
			smp.rpcs++
		}
	}
	smp.gas = rc.GasUsed
	settled := len(rc.ReturnData) == 1 && rc.ReturnData[0] == 1
	if tamper {
		if settled {
			return smp, errors.New("tampered response settled: on-chain verification accepted a dropped result")
		}
		return smp, nil
	}
	if !settled {
		return smp, errors.New("honest round refunded")
	}

	end = begin(phDecrypt)
	ids, err := u.user.Decrypt(resp)
	end()
	if err != nil {
		return nil, err
	}
	smp.total = time.Since(start)

	want := workload.Answer(u.db, q)
	slices.Sort(want)
	if !slices.Equal(ids, want) {
		return smp, fmt.Errorf("decrypted IDs differ from the plaintext answer: query %v got %d IDs, want %d", q, len(ids), len(want))
	}
	return smp, nil
}

// escrow mines the user's payment for request reqID over req's tokens.
func (s *session) escrow(reqID chain.Hash, req *core.SearchRequest, tr *obs.Trace) (*wire.ReceiptMsg, error) {
	th, err := contract.TokensHash(req.Tokens)
	if err != nil {
		return nil, err
	}
	nonce, err := s.chain.Nonce(userAcct)
	if err != nil {
		return nil, err
	}
	rc, err := s.chain.MineTraced(&chain.Transaction{
		From: userAcct, To: s.d.contract, Nonce: nonce, Value: 2500,
		GasLimit: 1_000_000, Data: contract.RequestData(reqID, cloudAcct, th),
	}, tr)
	if err != nil {
		return nil, fmt.Errorf("escrow: %w", err)
	}
	if !rc.Status {
		return nil, fmt.Errorf("escrow reverted: %s", rc.Err)
	}
	return rc, nil
}

// submit mines the cloud account's result submission; the contract
// verifies it on chain and settles or refunds.
func (s *session) submit(data []byte, tr *obs.Trace) (*wire.ReceiptMsg, error) {
	nonce, err := s.chain.Nonce(cloudAcct)
	if err != nil {
		return nil, err
	}
	rc, err := s.chain.MineTraced(&chain.Transaction{
		From: cloudAcct, To: s.d.contract, Nonce: nonce,
		GasLimit: 50_000_000, Data: data,
	}, tr)
	if err != nil {
		return nil, fmt.Errorf("submit: %w", err)
	}
	return rc, nil
}

// servedAc reports the accumulation value the cloud served resp's
// witnesses against. The bench plays the cloud's chain account and must
// submit that value. When an owner update overlapped the search, the cloud
// served either side of it; the candidates are checked locally, untimed
// bookkeeping a real cloud, which knows its own Ac, does not need.
func (s *session) servedAc(req *core.SearchRequest, resp *core.SearchResponse, v0, v1 int, overlapped bool) (*big.Int, error) {
	if v0 == v1 && !overlapped {
		return s.book.ac(v0), nil
	}
	pp := s.d.owner.AccumulatorPub()
	for _, ac := range s.book.candidates(v0, v1) {
		if core.VerifyResponse(pp, ac, req, resp) == nil {
			return ac, nil
		}
	}
	return nil, errors.New("cloud response verifies against no Ac the owner shipped")
}

// dropOneER removes the last encrypted handle of the first token result
// that has any — the canary's tampering.
func dropOneER(resp *core.SearchResponse) {
	for i := range resp.Results {
		if n := len(resp.Results[i].ER); n > 0 {
			resp.Results[i].ER = resp.Results[i].ER[:n-1]
			return
		}
	}
}
