package slicer

import (
	"strings"
	"testing"

	"slicer/internal/audit"
	"slicer/internal/durable"
	"slicer/internal/exchange"
)

func TestTwinDeploymentFairExchange(t *testing.T) {
	db := []Record{
		NewRecord(1, 10), NewRecord(2, 20), NewRecord(3, 10), NewRecord(4, 90),
	}
	d, err := NewTwinDeployment(DeploymentConfig{Params: testParams(8)}, db)
	if err != nil {
		t.Fatalf("NewTwinDeployment: %v", err)
	}
	const fee = 1000
	cloudStart := d.Balance(d.CloudAddr)

	out, err := d.VerifiedSearch(Equal(10), fee)
	if err != nil {
		t.Fatalf("VerifiedSearch: %v", err)
	}
	if !out.Settled || !equalU64(out.IDs, []uint64{1, 3}) {
		t.Fatalf("outcome = %+v, want settled [1 3]", out)
	}
	if got := d.Balance(d.CloudAddr); got != cloudStart+2*(fee/2) {
		t.Errorf("cloud balance %d, want %d", got, cloudStart+2*(fee/2))
	}

	// Delete on chain, then search again: the deleted record disappears
	// and both halves still verify.
	if err := d.Delete([]Record{NewRecord(1, 10)}); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	out, err = d.VerifiedSearch(Equal(10), fee)
	if err != nil {
		t.Fatalf("VerifiedSearch after delete: %v", err)
	}
	if !out.Settled || !equalU64(out.IDs, []uint64{3}) {
		t.Fatalf("post-delete outcome = %+v, want settled [3]", out)
	}

	// Update on chain.
	if err := d.Update(NewRecord(2, 20), NewRecord(5, 11)); err != nil {
		t.Fatalf("Update: %v", err)
	}
	out, err = d.VerifiedSearch(Less(15), fee)
	if err != nil {
		t.Fatalf("VerifiedSearch after update: %v", err)
	}
	if !out.Settled || !equalU64(out.IDs, []uint64{3, 5}) {
		t.Fatalf("post-update outcome = %+v, want settled [3 5]", out)
	}

	// Insert on chain.
	if err := d.Insert([]Record{NewRecord(6, 10)}); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	out, err = d.VerifiedSearch(Equal(10), fee)
	if err != nil {
		t.Fatalf("VerifiedSearch after insert: %v", err)
	}
	if !out.Settled || !equalU64(out.IDs, []uint64{3, 6}) {
		t.Fatalf("post-insert outcome = %+v, want settled [3 6]", out)
	}

	if _, err := d.VerifiedSearch(Equal(10), 1); err == nil {
		t.Error("sub-minimum fee accepted")
	}
}

// TestTwinDeploymentRefundsTamperedHalf drops one encrypted result from the
// insert half's response: that half's fee returns to the user, the honest
// delete half still pays the cloud, and the refund is journaled once with
// its evidence attributed.
func TestTwinDeploymentRefundsTamperedHalf(t *testing.T) {
	db := []Record{NewRecord(1, 10), NewRecord(2, 20), NewRecord(3, 10)}
	d, err := NewTwinDeployment(DeploymentConfig{Params: testParams(8)}, db)
	if err != nil {
		t.Fatalf("NewTwinDeployment: %v", err)
	}
	led, err := audit.Open(audit.Options{FS: durable.NewMemFS(), Dir: "audit", Fsync: durable.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer led.Close()
	d.AttachAudit(led, "twin")
	d.clouds[0] = exchange.Tamper(d.clouds[0], func(resp *SearchResponse) {
		for i := range resp.Results {
			if n := len(resp.Results[i].ER); n > 0 {
				resp.Results[i].ER = resp.Results[i].ER[:n-1]
				return
			}
		}
	})
	const fee = 1000
	userStart, cloudStart := d.Balance(d.UserAddr), d.Balance(d.CloudAddr)

	out, err := d.VerifiedSearch(Equal(10), fee)
	if err != nil {
		t.Fatalf("VerifiedSearch: %v", err)
	}
	if out.Settled || out.IDs != nil {
		t.Fatalf("outcome = %+v, want unsettled with no IDs", out)
	}
	if got := d.Balance(d.UserAddr); got != userStart-fee/2 {
		t.Errorf("user balance %d, want %d (insert half refunded)", got, userStart-fee/2)
	}
	if got := d.Balance(d.CloudAddr); got != cloudStart+fee/2 {
		t.Errorf("cloud balance %d, want %d (delete half settled)", got, cloudStart+fee/2)
	}

	if err := led.Sync(); err != nil {
		t.Fatal(err)
	}
	var refunds []*audit.Record
	for _, r := range led.Recent(0) {
		if r.Kind == audit.KindRefund {
			refunds = append(refunds, r)
		}
	}
	if len(refunds) != 1 {
		t.Fatalf("%d refund records, want 1", len(refunds))
	}
	r := refunds[0]
	if !strings.HasPrefix(r.Detail, "twin insert half, ") || r.Tenant != "twin" {
		t.Errorf("refund record %q tenant %q, want the insert half named, tenant twin", r.Detail, r.Tenant)
	}
	ev := r.Evidence
	if ev == nil || len(ev.TxHash) == 0 || len(ev.RequestID) == 0 || ev.Phase == "" || ev.TokenIndex < 0 {
		t.Fatalf("refund evidence not complete: %+v", ev)
	}
}
