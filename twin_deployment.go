package slicer

import (
	"fmt"

	"slicer/internal/audit"
	"slicer/internal/chain"
	"slicer/internal/core"
	"slicer/internal/exchange"
)

// TwinDeployment combines the deletion/update extension with the on-chain
// fair-exchange flow: one blockchain network hosts two Slicer contract
// instances (one per twin instance), each committing its own accumulator
// digest. A verified search escrows a fee per instance and both halves are
// verified on chain; the effective result is the set difference of the two
// settled halves.
type TwinDeployment struct {
	owner *core.TwinOwner
	user  *core.TwinUser
	cloud *core.TwinCloud
	// clouds answer the two halves' searches: [0]=insert instance,
	// [1]=delete instance.
	clouds [2]exchange.Cloud

	chain *exchange.Local
	addrs [2]Address // contract addresses, indexed like clouds

	OwnerAddr Address
	UserAddr  Address
	CloudAddr Address

	aud       *audit.Ledger
	audTenant string
}

// AttachAudit journals the twin deployment's per-half settle/refund events
// into led, stamped with tenant. A nil ledger detaches.
func (d *TwinDeployment) AttachAudit(led *audit.Ledger, tenant string) {
	d.aud = led
	d.audTenant = tenant
}

// TwinOutcome reports a twin fair-exchange search.
type TwinOutcome struct {
	IDs     []uint64 // nil unless both halves settled
	Settled bool
	GasUsed uint64 // total verification gas across both instances
}

// NewTwinDeployment boots the chain, deploys both contract instances and
// builds the twin scheme.
func NewTwinDeployment(cfg DeploymentConfig, db []Record) (*TwinDeployment, error) {
	owner, err := core.NewTwinOwner(cfg.Params)
	if err != nil {
		return nil, err
	}
	built, err := owner.Build(db)
	if err != nil {
		return nil, err
	}
	cloud, err := core.NewTwinCloud(
		owner.Add.CloudInit(built.Add.Index),
		owner.Del.CloudInit(built.Del.Index),
		core.WitnessCached,
	)
	if err != nil {
		return nil, err
	}
	user, err := core.NewTwinUser(owner.ClientState())
	if err != nil {
		return nil, err
	}

	d := &TwinDeployment{
		owner:     owner,
		user:      user,
		cloud:     cloud,
		clouds:    [2]exchange.Cloud{cloud.Add, cloud.Del},
		OwnerAddr: chain.AddressFromString("twin-owner"),
		UserAddr:  chain.AddressFromString("twin-user"),
		CloudAddr: chain.AddressFromString("twin-cloud"),
	}
	if d.chain, err = exchange.NewLocal(cfg.Validators, cfg.InitialBalance, d.OwnerAddr, d.UserAddr, d.CloudAddr); err != nil {
		return nil, err
	}
	for i, inst := range d.owners() {
		r, err := exchange.Deploy(d.chain, d.OwnerAddr, inst)
		if err != nil {
			return nil, fmt.Errorf("slicer: twin contract %d: %w", i, err)
		}
		d.addrs[i] = r.ContractAddress
	}
	return d, nil
}

func (d *TwinDeployment) owners() [2]*core.Owner {
	return [2]*core.Owner{d.owner.Add, d.owner.Del}
}

// Balance reads an account balance.
func (d *TwinDeployment) Balance(a Address) uint64 { return d.chain.Network.Leader().Balance(a) }

// refreshDigests posts both instances' current digests after a mutation.
func (d *TwinDeployment) refreshDigests() error {
	for i, inst := range d.owners() {
		if _, err := exchange.SetAc(d.chain, d.OwnerAddr, d.addrs[i], inst); err != nil {
			return fmt.Errorf("slicer: twin contract %d: %w", i, err)
		}
	}
	return nil
}

func (d *TwinDeployment) applyAndRefresh(up *core.TwinUpdate) error {
	if err := d.cloud.ApplyUpdate(up); err != nil {
		return err
	}
	d.user.Add.UpdateStates(d.owner.Add.StatesSnapshot())
	d.user.Del.UpdateStates(d.owner.Del.StatesSnapshot())
	return d.refreshDigests()
}

// Insert adds new records and refreshes the on-chain digests.
func (d *TwinDeployment) Insert(records []Record) error {
	up, err := d.owner.Insert(records)
	if err != nil {
		return err
	}
	return d.applyAndRefresh(up)
}

// Delete removes records (with their exact original attribute values).
func (d *TwinDeployment) Delete(records []Record) error {
	up, err := d.owner.Delete(records)
	if err != nil {
		return err
	}
	return d.applyAndRefresh(up)
}

// Update replaces a record under a fresh ID.
func (d *TwinDeployment) Update(old, newRecord Record) error {
	up, err := d.owner.Update(old, newRecord)
	if err != nil {
		return err
	}
	return d.applyAndRefresh(up)
}

// VerifiedSearch runs the fair-exchange flow against both instances. The
// fee is escrowed per instance (half each, minimum 1); the outcome settles
// only if both halves verify. Fairness is per instance: a cloud that cheats
// on either half forfeits that half's fee.
func (d *TwinDeployment) VerifiedSearch(q Query, fee uint64) (*TwinOutcome, error) {
	if fee < 2 {
		return nil, fmt.Errorf("slicer: twin search fee must be at least 2")
	}
	req, err := d.user.Token(q)
	if err != nil {
		return nil, err
	}
	halves := [2]*core.SearchRequest{req.Add, req.Del}
	var resps [2]*core.SearchResponse
	outcome := &TwinOutcome{Settled: true}
	for i, inst := range d.owners() {
		// The delete instance may legitimately have no matching slices.
		half, err := (&exchange.Round{
			Chain: d.chain, Cloud: d.clouds[i],
			Contract: d.addrs[i], Payer: d.UserAddr, Server: d.CloudAddr,
			Owner: inst, Audit: d.aud, Tenant: d.audTenant,
			Label: fmt.Sprintf("twin %s half, ", [2]string{"insert", "delete"}[i]),
		}).Run(halves[i], fee/2, nil)
		if err != nil {
			return nil, err
		}
		outcome.GasUsed += half.GasUsed
		outcome.Settled = outcome.Settled && half.Settled
		resps[i] = half.Response
	}
	if outcome.Settled {
		ids, err := d.user.Decrypt(&core.TwinResponse{Add: resps[0], Del: resps[1]})
		if err != nil {
			return nil, err
		}
		outcome.IDs = ids
	}
	return outcome, nil
}
