package exchange

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"testing"

	"slicer/internal/audit"
	"slicer/internal/chain"
	"slicer/internal/core"
	"slicer/internal/durable"
	"slicer/internal/wire"
)

// dropER removes the last encrypted result of the first non-empty posting:
// a cloud hiding one matching record.
func dropER(resp *core.SearchResponse) {
	for i := range resp.Results {
		if n := len(resp.Results[i].ER); n > 0 {
			resp.Results[i].ER = resp.Results[i].ER[:n-1]
			return
		}
	}
}

// TestRoundOverBothChains runs the round over the in-process chain and over
// loopback chain and cloud servers, against an honest cloud and against a
// cloud that drops one encrypted result.
func TestRoundOverBothChains(t *testing.T) {
	owner, err := core.NewOwner(core.Params{Bits: 8, TrapdoorBits: 512, AccumulatorBits: 512})
	if err != nil {
		t.Fatal(err)
	}
	built, err := owner.Build([]core.Record{
		core.NewRecord(1, 10), core.NewRecord(2, 200), core.NewRecord(3, 30), core.NewRecord(4, 55),
	})
	if err != nil {
		t.Fatal(err)
	}
	user, err := core.NewUser(owner.ClientState())
	if err != nil {
		t.Fatal(err)
	}
	ownerAcct := chain.AddressFromString("owner")
	payer := chain.AddressFromString("user")
	server := chain.AddressFromString("cloud")
	const fee = 1000

	// setups build the round's chain over a fresh Local network, which the
	// test also reads balances and receipts from, and a cloud holding the
	// owner's index.
	setups := map[string]func(t *testing.T, local *Local) (Chain, Cloud){
		"in-process": func(t *testing.T, local *Local) (Chain, Cloud) {
			cloud, err := core.NewCloud(owner.CloudInit(built.Index), core.WitnessCached)
			if err != nil {
				t.Fatal(err)
			}
			return local, cloud
		},
		"wire": func(t *testing.T, local *Local) (Chain, Cloud) {
			chainSrv := wire.NewChainServer(local.Network)
			chainAddr, err := chainSrv.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { chainSrv.Close() })
			cloudSrv := wire.NewCloudServer()
			cloudAddr, err := cloudSrv.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { cloudSrv.Close() })
			chainCli, err := wire.DialChain(chainAddr)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { chainCli.Close() })
			cloudCli, err := wire.DialCloud(cloudAddr)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { cloudCli.Close() })
			if err := cloudCli.Init(owner.CloudInit(built.Index), true); err != nil {
				t.Fatal(err)
			}
			return Remote{Client: chainCli}, cloudCli
		},
	}

	// The submission's calldata carries the random request ID, whose zero
	// bytes are priced lower; everything else about an honest query's gas
	// is the same on both chains.
	honestGas := map[string]uint64{}
	for _, name := range []string{"in-process", "wire"} {
		for _, tamper := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/tampered=%v", name, tamper), func(t *testing.T) {
				local, err := NewLocal(nil, 0, ownerAcct, payer, server)
				if err != nil {
					t.Fatal(err)
				}
				ch, cloud := setups[name](t, local)
				deployed, err := Deploy(ch, ownerAcct, owner)
				if err != nil {
					t.Fatal(err)
				}
				var mutated *core.SearchResponse
				if tamper {
					cloud = Tamper(cloud, func(resp *core.SearchResponse) {
						dropER(resp)
						mutated = resp
					})
				}
				led, err := audit.Open(audit.Options{FS: durable.NewMemFS(), Dir: "audit", Fsync: durable.FsyncAlways})
				if err != nil {
					t.Fatal(err)
				}
				defer led.Close()
				req, err := user.Token(core.Less(100))
				if err != nil {
					t.Fatal(err)
				}
				leader := local.Network.Leader()
				payerBefore, serverBefore := leader.Balance(payer), leader.Balance(server)

				out, err := (&Round{
					Chain: ch, Cloud: cloud,
					Contract: deployed.ContractAddress, Payer: payer, Server: server,
					Owner: owner, User: user, Audit: led, Tenant: "t",
				}).Run(req, fee, nil)
				if err != nil {
					t.Fatalf("Run: %v", err)
				}
				rc, ok := leader.Receipt(out.SubmitTx)
				if !ok {
					t.Fatalf("no receipt for the submission %s", out.SubmitTx)
				}
				if rc.GasUsed != out.GasUsed {
					t.Errorf("outcome gas %d, receipt gas %d", out.GasUsed, rc.GasUsed)
				}
				if err := led.Sync(); err != nil {
					t.Fatal(err)
				}
				recs := led.Recent(0)
				slices.Reverse(recs) // oldest first

				if !tamper {
					if !out.Settled || out.VerifyErr != nil {
						t.Fatalf("honest round: settled=%v verifyErr=%v", out.Settled, out.VerifyErr)
					}
					if got := fmt.Sprint(out.IDs); got != "[1 3 4]" {
						t.Errorf("IDs = %s, want [1 3 4]", got)
					}
					if got := leader.Balance(server); got != serverBefore+fee {
						t.Errorf("cloud balance %d, want %d", got, serverBefore+fee)
					}
					if got := leader.Balance(payer); got != payerBefore-fee {
						t.Errorf("user balance %d, want %d", got, payerBefore-fee)
					}
					id := out.RequestID
					want := []audit.Record{
						{Kind: audit.KindSearch, Detail: fmt.Sprintf("request %x…, %d tokens, %d escrowed", id[:8], len(req.Tokens), fee)},
						{Kind: audit.KindSettle, Detail: fmt.Sprintf("request %x… settled, gas %d", id[:8], out.GasUsed)},
					}
					if len(recs) != len(want) {
						t.Fatalf("ledger holds %d records, want %d", len(recs), len(want))
					}
					for i, w := range want {
						if recs[i].Kind != w.Kind || recs[i].Detail != w.Detail || recs[i].Tenant != "t" {
							t.Errorf("record %d = %s/%q/%q, want %s/%q/t", i, recs[i].Kind, recs[i].Detail, recs[i].Tenant, w.Kind, w.Detail)
						}
					}
					honestGas[name] = out.GasUsed - chain.IntrinsicGas(id[:], false)
					return
				}

				if out.Settled || out.IDs != nil {
					t.Fatalf("tampered round: settled=%v ids=%v", out.Settled, out.IDs)
				}
				if mutated == nil || out.Response != mutated {
					t.Fatal("outcome does not carry the mutated response")
				}
				if leader.Balance(payer) != payerBefore || leader.Balance(server) != serverBefore {
					t.Errorf("fee not refunded: user %d -> %d, cloud %d -> %d",
						payerBefore, leader.Balance(payer), serverBefore, leader.Balance(server))
				}
				var refunds []*audit.Record
				for _, r := range recs {
					if r.Kind == audit.KindRefund {
						refunds = append(refunds, r)
					}
				}
				if len(refunds) != 1 || refunds[0].Evidence == nil || refunds[0].Outcome != audit.OutcomeFail {
					t.Fatalf("want exactly one failed refund record with evidence, got %+v", refunds)
				}
				ev := refunds[0].Evidence
				wantTokens, _ := json.Marshal(req)
				wantResp, _ := json.Marshal(mutated)
				verr := core.VerifyResponse(owner.AccumulatorPub(), owner.Ac(), req, mutated)
				ve, ok := core.AsVerificationError(verr)
				if !ok {
					t.Fatalf("local verification of the mutated response: %v", verr)
				}
				switch {
				case !bytes.Equal(ev.RequestID, out.RequestID[:]):
					t.Error("evidence RequestID differs from the outcome's")
				case !bytes.Equal(ev.TxHash, out.SubmitTx[:]):
					t.Error("evidence TxHash differs from the submission's hash")
				case ev.GasUsed != rc.GasUsed || !bytes.Equal(ev.ReturnData, rc.ReturnData):
					t.Errorf("evidence gas/return %d/%x, receipt %d/%x", ev.GasUsed, ev.ReturnData, rc.GasUsed, rc.ReturnData)
				case !bytes.Equal(ev.Tokens, wantTokens) || !bytes.Equal(ev.Response, wantResp):
					t.Error("evidence does not hold the request and the mutated response")
				case ev.Phase != ve.Phase || ev.TokenIndex != ve.TokenIndex:
					t.Errorf("evidence attributed to %s/%d, local verification says %s/%d", ev.Phase, ev.TokenIndex, ve.Phase, ve.TokenIndex)
				case !bytes.Equal(ev.Ac, owner.Ac().Bytes()):
					t.Error("evidence Ac differs from the owner's")
				}
				if out.VerifyErr == nil || out.VerifyErr.Error() != verr.Error() {
					t.Errorf("outcome VerifyErr = %v, want %v", out.VerifyErr, verr)
				}
			})
		}
	}
	if honestGas["in-process"] != honestGas["wire"] {
		t.Errorf("honest gas net of the request ID: in-process %d, wire %d", honestGas["in-process"], honestGas["wire"])
	}
}

// TestProbe checks the shared probe's verdicts: a settled round passes with
// the query in its detail, a refund fails with the local verification error.
func TestProbe(t *testing.T) {
	q := core.Query{Attr: "age", Op: core.OpLess, Value: 7}
	verr := fmt.Errorf("membership")
	for _, tc := range []struct {
		out        *Outcome
		wantDetail string
		wantErr    bool
	}{
		{&Outcome{Settled: true, GasUsed: 9, IDs: []uint64{1, 2}}, "query age < 7 settled, gas 9, 2 matches", false},
		{&Outcome{RequestID: chain.Hash{0xab}, VerifyErr: verr}, "request ab00000000000000… refunded", true},
	} {
		detail, ev, err := Probe(q, func(got core.Query) (*Outcome, error) {
			if got != q {
				t.Errorf("probe searched %+v, want %+v", got, q)
			}
			return tc.out, nil
		})()
		if detail != tc.wantDetail || ev != nil || (err != nil) != tc.wantErr {
			t.Errorf("probe = %q, %v, %v; want %q, err=%v", detail, ev, err, tc.wantDetail, tc.wantErr)
		}
	}
}
