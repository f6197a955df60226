package exchange

import (
	"fmt"

	"slicer/internal/chain"
	"slicer/internal/contract"
	"slicer/internal/core"
	"slicer/internal/obs"
	"slicer/internal/wire"
)

// Chain admits and mines transactions. MineTraced submits tx, seals the
// next block and returns tx's receipt, recording the chain's chain.submit
// and chain.seal spans into a non-nil trace. Local and Remote implement it.
type Chain interface {
	Nonce(a chain.Address) (uint64, error)
	MineTraced(tx *chain.Transaction, tr *obs.Trace) (*chain.Receipt, error)
}

// Local is an in-process PoA network with the Slicer contract registered.
type Local struct {
	Network    *chain.Network
	Validators []chain.Address
}

// NewLocal boots a Local chain. Validator addresses derive from the given
// names (three validators when none are given), and every funded account
// starts with balance (1e12 when zero).
func NewLocal(validators []string, balance uint64, funded ...chain.Address) (*Local, error) {
	registry := chain.NewRegistry()
	if err := contract.Register(registry); err != nil {
		return nil, err
	}
	if len(validators) == 0 {
		validators = []string{"validator-0", "validator-1", "validator-2"}
	}
	l := &Local{Validators: make([]chain.Address, len(validators))}
	for i, n := range validators {
		l.Validators[i] = chain.AddressFromString(n)
	}
	if balance == 0 {
		balance = 1_000_000_000_000
	}
	alloc := make(map[chain.Address]uint64, len(funded))
	for _, a := range funded {
		alloc[a] = balance
	}
	var err error
	if l.Network, err = chain.NewNetwork(registry, l.Validators, alloc); err != nil {
		return nil, err
	}
	return l, nil
}

// Nonce reads a's next nonce from the leader.
func (l *Local) Nonce(a chain.Address) (uint64, error) { return l.Network.Leader().NextNonce(a), nil }

// MineTraced records the same span names a remote chain server reports, so
// in-process and distributed traces read alike.
func (l *Local) MineTraced(tx *chain.Transaction, tr *obs.Trace) (*chain.Receipt, error) {
	endSubmit := tr.Span("chain.submit")
	if err := l.Network.SubmitTx(tx); err != nil {
		return nil, err
	}
	endSubmit()
	endSeal := tr.Span("chain.seal")
	if _, err := l.Network.Step(); err != nil {
		return nil, err
	}
	endSeal()
	r, ok := l.Network.Leader().Receipt(tx.Hash())
	if !ok {
		return nil, fmt.Errorf("exchange: receipt missing for %s", tx.Hash())
	}
	return r, nil
}

// Remote is a chain server reached over the wire protocol.
type Remote struct {
	Client *wire.ChainClient
}

// Nonce reads a's next nonce from the server.
func (r Remote) Nonce(a chain.Address) (uint64, error) { return r.Client.Nonce(a) }

// MineTraced mines tx on the server; the server's spans and the wire time of
// both round trips are spliced into a non-nil trace.
func (r Remote) MineTraced(tx *chain.Transaction, tr *obs.Trace) (*chain.Receipt, error) {
	m, err := r.Client.MineTraced(tx, tr)
	if err != nil {
		return nil, err
	}
	if !m.Found {
		return nil, fmt.Errorf("exchange: receipt missing for %s", tx.Hash())
	}
	return &chain.Receipt{
		TxHash:          tx.Hash(),
		Status:          m.Status,
		GasUsed:         m.GasUsed,
		ContractAddress: m.ContractAddress,
		ReturnData:      m.ReturnData,
		Err:             m.Err,
	}, nil
}

// Deploy mines a Slicer contract committing o's accumulator parameters and
// current Ac, sent from the owner account from, and returns the creation
// receipt.
func Deploy(c Chain, from chain.Address, o *core.Owner) (*chain.Receipt, error) {
	return send(c, contract.DeployTx(from, 0, o.AccumulatorPub().Marshal(), o.Ac(), submitGas), nil, "contract deployment")
}

// SetAc mines the owner's update of the contract's accumulation value to
// o's current Ac.
func SetAc(c Chain, from, contractAddr chain.Address, o *core.Owner) (*chain.Receipt, error) {
	return send(c, &chain.Transaction{
		From: from, To: contractAddr, GasLimit: callGas, Data: contract.SetAcData(o.Ac()),
	}, nil, "SetAc")
}

// send stamps tx with its sender's next nonce, mines it and fails on a
// revert, naming the transaction by what.
func send(c Chain, tx *chain.Transaction, tr *obs.Trace, what string) (*chain.Receipt, error) {
	nonce, err := c.Nonce(tx.From)
	if err != nil {
		return nil, err
	}
	tx.Nonce = nonce
	rc, err := c.MineTraced(tx, tr)
	if err != nil {
		return nil, err
	}
	if !rc.Status {
		return nil, fmt.Errorf("exchange: %s reverted: %s", what, rc.Err)
	}
	return rc, nil
}
