// Package exchange runs the fair-exchange round of the paper's Fig. 1: the
// user escrows the search fee on chain against a hash of the tokens, the
// cloud searches and submits its results and proofs, and the contract
// verifies them and settles the fee to the cloud or refunds it to the user.
//
// Round.Run is the only code that builds a search's escrow and submission
// transactions. Every client runs its searches through it over two small
// interfaces: a Cloud (in process or over the wire) and a Chain (Local or
// Remote).
package exchange

import (
	"crypto/rand"
	"encoding/json"
	"errors"
	"fmt"

	"slicer/internal/audit"
	"slicer/internal/chain"
	"slicer/internal/contract"
	"slicer/internal/core"
	"slicer/internal/obs"
)

// Gas limits: callGas for the escrow and SetAc calls, submitGas for the
// result submission (which runs the on-chain verification) and for contract
// creation.
const (
	callGas   = 1_000_000
	submitGas = 50_000_000
)

// Cloud answers a search request, recording its collect/witness spans into
// a non-nil trace. *core.Cloud and *wire.CloudClient satisfy it.
type Cloud interface {
	SearchTraced(req *core.SearchRequest, tr *obs.Trace) (*core.SearchResponse, error)
}

// Tamper wraps c so that f mutates every response before the round submits
// it: the malicious-cloud hook used to demonstrate and test the refund path.
func Tamper(c Cloud, f func(*core.SearchResponse)) Cloud { return tampered{c, f} }

type tampered struct {
	Cloud
	f func(*core.SearchResponse)
}

func (t tampered) SearchTraced(req *core.SearchRequest, tr *obs.Trace) (*core.SearchResponse, error) {
	resp, err := t.Cloud.SearchTraced(req, tr)
	if err == nil {
		t.f(resp)
	}
	return resp, err
}

// Round is the fixed setting of one contract instance's fair exchange. Its
// zero Metrics, nil Audit and nil User are valid: they turn metrics,
// journaling and decryption off.
type Round struct {
	Chain    Chain
	Cloud    Cloud
	Contract chain.Address // the Slicer contract instance
	Payer    chain.Address // the user's account: escrows the fee
	Server   chain.Address // the cloud's account: submits results, earns the fee
	// Owner supplies the accumulator parameters and the current Ac that
	// results are submitted and re-verified against.
	Owner *core.Owner
	// User decrypts a settled response; with nil the caller decrypts
	// Outcome.Response itself.
	User    *core.User
	Metrics Metrics
	Audit   *audit.Ledger
	Tenant  string
	// Label prefixes every audit detail, naming the round within a larger
	// search (one half of a twin search).
	Label string
}

// Outcome reports one round.
type Outcome struct {
	// IDs are the decrypted matching record IDs: nil unless the round
	// settled and Round.User is set.
	IDs     []uint64
	Settled bool
	// GasUsed is the gas of the submission transaction, which runs the
	// on-chain verification.
	GasUsed   uint64
	RequestID chain.Hash
	// SubmitTx is the hash of the submission transaction.
	SubmitTx chain.Hash
	// Response is the cloud's response exactly as submitted.
	Response *core.SearchResponse
	// VerifyErr is the local re-run of the public verification after a
	// refund; it attributes the on-chain rejection to a phase and token
	// index. Nil when the round settled.
	VerifyErr error
}

// Run executes one round for req, escrowing fee: it samples the request ID,
// mines the escrow, runs the cloud search, mines the submission, and then
// decrypts a settled response or journals a refund with its full evidence
// bundle. A refund is an outcome, not an error; errors are transport
// failures and reverted transactions. The escrow, cloud_search, settle and
// decrypt phases are recorded into the metrics and a non-nil trace.
func (r *Round) Run(req *core.SearchRequest, fee uint64, tr *obs.Trace) (*Outcome, error) {
	r.Metrics.searches.Inc()
	th, err := contract.TokensHash(req.Tokens)
	if err != nil {
		return nil, err
	}
	out := &Outcome{}
	if _, err := rand.Read(out.RequestID[:]); err != nil {
		return nil, fmt.Errorf("exchange: sample request id: %w", err)
	}
	id := out.RequestID

	endEscrow := obs.StartPhase(r.Metrics.escrow, tr, "escrow")
	if _, err := send(r.Chain, &chain.Transaction{
		From: r.Payer, To: r.Contract, Value: fee, GasLimit: callGas,
		Data: contract.RequestData(id, r.Server, th),
	}, tr, "escrow request"); err != nil {
		return nil, err
	}
	endEscrow()
	r.journal(audit.Event{Kind: audit.KindSearch,
		Detail: fmt.Sprintf("request %x…, %d tokens, %d escrowed", id[:8], len(req.Tokens), fee)})

	endSearch := obs.StartPhase(r.Metrics.search, tr, "cloud_search")
	resp, err := r.Cloud.SearchTraced(req, tr)
	if err != nil {
		return nil, fmt.Errorf("cloud search: %w", err)
	}
	endSearch()
	out.Response = resp

	data, err := contract.SubmitData(id, r.Owner.AccumulatorPub().Marshal(), r.Owner.Ac(), resp.Results)
	if err != nil {
		return nil, err
	}
	endSettle := obs.StartPhase(r.Metrics.settle, tr, "settle")
	rc, err := send(r.Chain, &chain.Transaction{
		From: r.Server, To: r.Contract, GasLimit: submitGas, Data: data,
	}, tr, "result submission")
	if err != nil {
		return nil, err
	}
	endSettle()
	out.SubmitTx, out.GasUsed = rc.TxHash, rc.GasUsed
	r.Metrics.gas.Add(rc.GasUsed)

	if len(rc.ReturnData) == 1 && rc.ReturnData[0] == 1 {
		r.Metrics.settled.Inc()
		out.Settled = true
		r.journal(audit.Event{Kind: audit.KindSettle,
			Detail: fmt.Sprintf("request %x… settled, gas %d", id[:8], rc.GasUsed)})
		if r.User != nil {
			endDecrypt := obs.StartPhase(r.Metrics.decrypt, tr, "decrypt")
			if out.IDs, err = r.User.Decrypt(resp); err != nil {
				return nil, err
			}
			endDecrypt()
		}
		return out, nil
	}

	r.Metrics.refunded.Inc()
	out.VerifyErr = core.VerifyResponse(r.Owner.AccumulatorPub(), r.Owner.Ac(), req, resp)
	if r.Audit != nil {
		r.journal(r.refundEvent(req, out, rc))
	}
	return out, nil
}

// refundEvent builds the refund record with its evidence bundle: the tokens
// the contract judged against, the raw response exactly as submitted, the
// accumulation value and public parameters (so the proof check replays from
// the bundle alone) and the submission's receipt. The ledger forces evidence
// durable before Log returns.
func (r *Round) refundEvent(req *core.SearchRequest, out *Outcome, rc *chain.Receipt) audit.Event {
	ev := &audit.Evidence{
		Ac:         r.Owner.Ac().Bytes(),
		AccPub:     r.Owner.AccumulatorPub().Marshal(),
		TokenIndex: -1,
		RequestID:  out.RequestID[:],
		TxHash:     out.SubmitTx[:],
		GasUsed:    rc.GasUsed,
		ReturnData: rc.ReturnData,
	}
	if b, err := json.Marshal(req); err == nil {
		ev.Tokens = b
	}
	if b, err := json.Marshal(out.Response); err == nil {
		ev.Response = b
	}
	detail := fmt.Sprintf("request %x… refunded", out.RequestID[:8])
	if out.VerifyErr != nil {
		if ve, ok := core.AsVerificationError(out.VerifyErr); ok {
			ev.Phase = ve.Phase
			ev.TokenIndex = ve.TokenIndex
		}
		detail += ": " + out.VerifyErr.Error()
	}
	return audit.Event{Kind: audit.KindRefund, Outcome: audit.OutcomeFail, Detail: detail, Evidence: ev}
}

func (r *Round) journal(ev audit.Event) {
	ev.Tenant = r.Tenant
	ev.Detail = r.Label + ev.Detail
	r.Audit.Log(ev)
}

// Probe returns an audit.ProbeFunc that runs search(q) once per probe: the
// continuous-verification canary. A refund fails the probe; the round has
// already journaled the refund's evidence bundle, so the probe record
// carries only the verdict.
func Probe(q core.Query, search func(core.Query) (*Outcome, error)) audit.ProbeFunc {
	desc := fmt.Sprintf("%s %d", q.Op, q.Value)
	if q.Attr != "" {
		desc = q.Attr + " " + desc
	}
	return func() (string, *audit.Evidence, error) {
		out, err := search(q)
		if err != nil {
			return "", nil, err
		}
		if !out.Settled {
			detail := fmt.Sprintf("request %x… refunded", out.RequestID[:8])
			if out.VerifyErr != nil {
				return detail, nil, fmt.Errorf("on-chain verification failed: %w", out.VerifyErr)
			}
			return detail, nil, errors.New("on-chain verification failed: payment refunded")
		}
		return fmt.Sprintf("query %s settled, gas %d, %d matches", desc, out.GasUsed, len(out.IDs)), nil, nil
	}
}

// Metrics are the fair-exchange instruments. The zero value is the disabled
// state: every instrument is nil-safe.
type Metrics struct {
	searches *obs.Counter
	settled  *obs.Counter
	refunded *obs.Counter
	gas      *obs.Counter
	escrow   *obs.Histogram
	search   *obs.Histogram
	settle   *obs.Histogram
	decrypt  *obs.Histogram
}

// NewMetrics registers the slicer_fairexchange_* instruments in reg; a nil
// registry yields the disabled zero value.
func NewMetrics(reg *obs.Registry) Metrics {
	if reg == nil {
		return Metrics{}
	}
	const phaseHelp = "Latency of one fair-exchange phase, by phase."
	return Metrics{
		searches: reg.Counter("slicer_fairexchange_searches_total", "Fair-exchange searches run."),
		settled:  reg.Counter("slicer_fairexchange_settled_total", "Searches whose payment settled to the cloud."),
		refunded: reg.Counter("slicer_fairexchange_refunded_total", "Searches refunded after failed on-chain verification."),
		gas:      reg.Counter("slicer_fairexchange_gas_total", "Gas consumed by result-submission transactions (on-chain verification)."),
		escrow:   reg.Histogram(obs.Label("slicer_fairexchange_seconds", "phase", "escrow"), phaseHelp),
		search:   reg.Histogram(obs.Label("slicer_fairexchange_seconds", "phase", "cloud_search"), phaseHelp),
		settle:   reg.Histogram(obs.Label("slicer_fairexchange_seconds", "phase", "settle"), phaseHelp),
		decrypt:  reg.Histogram(obs.Label("slicer_fairexchange_seconds", "phase", "decrypt"), phaseHelp),
	}
}
