package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/device"
	"repro/internal/job"
	"repro/internal/policy"
	"repro/internal/records"
	"repro/internal/sim"
)

// dropRecorder captures drop events for admission assertions.
type dropRecorder struct{ drops []string }

func (r *dropRecorder) Arrival(*job.QJob, float64) {}
func (r *dropRecorder) Start(string, float64)      {}
func (r *dropRecorder) Finish(string, float64, float64, float64, []string) {
}
func (r *dropRecorder) Drop(j *job.QJob, t float64, reason string) {
	r.drops = append(r.drops, fmt.Sprintf("%s@%g:%s", j.ID, t, reason))
}

// admissionBroker builds a broker whose fleet (635 free qubits) runs two
// 300-qubit jobs concurrently; further offers queue. The clock is never
// advanced, so queue depth and in-flight counts evolve deterministically
// with each offer.
func admissionBroker(t *testing.T, cfg AdmissionConfig, rec StreamRecorder) *Broker {
	t.Helper()
	env := sim.NewEnvironment()
	fleet, err := device.StandardFleet(env, 2025)
	if err != nil {
		t.Fatal(err)
	}
	pol := &fillPolicy{allocs: make([]policy.Allocation, 0, len(fleet))}
	b, err := NewBroker(env, fleet, pol, DefaultConfig(), rec, 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.SetAdmission(cfg); err != nil {
		t.Fatalf("SetAdmission: %v", err)
	}
	return b
}

func mkJob(id, tenant string) *job.QJob {
	return &job.QJob{ID: id, NumQubits: 300, Depth: 10, Shots: 20000, TwoQubitGates: 750, Tenant: tenant}
}

func TestAdmissionPolicies(t *testing.T) {
	type offer struct {
		id, tenant string
		// want is the expected decision rendered as
		// "admit", "admit!shedID", or the refusal reason.
		want string
	}
	cases := []struct {
		name      string
		cfg       AdmissionConfig
		offers    []offer
		wantStats AdmissionStats
		wantDrops []string
		wantDepth int
	}{
		{
			name: "reject at queue limit",
			cfg:  AdmissionConfig{Policy: AdmitReject, MaxQueue: 2, RetryAfterS: 30},
			offers: []offer{
				{"j1", "", "admit"}, // runs
				{"j2", "", "admit"}, // runs
				{"j3", "", "admit"}, // queued (depth 1)
				{"j4", "", "admit"}, // queued (depth 2)
				{"j5", "", DropQueueFull},
				{"j6", "", DropQueueFull},
			},
			wantStats: AdmissionStats{RejectedQueueFull: 2},
			wantDrops: []string{"j5@0:queue-full", "j6@0:queue-full"},
			wantDepth: 2,
		},
		{
			name: "shed oldest queued",
			cfg:  AdmissionConfig{Policy: AdmitShed, MaxQueue: 2},
			offers: []offer{
				{"j1", "", "admit"},
				{"j2", "", "admit"},
				{"j3", "", "admit"},
				{"j4", "", "admit"},
				{"j5", "", "admit!j3"},
				{"j6", "", "admit!j4"},
			},
			wantStats: AdmissionStats{Shed: 2},
			wantDrops: []string{"j3@0:shed", "j4@0:shed"},
			wantDepth: 2,
		},
		{
			name: "per-tenant quota",
			cfg:  AdmissionConfig{Policy: AdmitQuota, TenantQuota: 2, RetryAfterS: 5},
			offers: []offer{
				{"a1", "acme", "admit"},
				{"a2", "acme", "admit"},
				{"a3", "acme", DropTenantQuota},
				{"b1", "globex", "admit"},
				{"b2", "globex", "admit"},
				{"b3", "globex", DropTenantQuota},
				{"d1", "", "admit"}, // empty tenant gets its own bucket
			},
			wantStats: AdmissionStats{RejectedQuota: 2},
			wantDrops: []string{"a3@0:tenant-quota", "b3@0:tenant-quota"},
			wantDepth: 3, // a2 + b2 + d1 wait behind the two running jobs
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			run := func() (*Broker, *dropRecorder, []string) {
				rec := &dropRecorder{}
				b := admissionBroker(t, c.cfg, rec)
				var got []string
				for _, o := range c.offers {
					d := b.Offer(mkJob(o.id, o.tenant))
					switch {
					case d.Admitted && d.ShedJobID != "":
						got = append(got, "admit!"+d.ShedJobID)
					case d.Admitted:
						got = append(got, "admit")
					default:
						got = append(got, d.Reason)
						if d.RetryAfterS != c.cfg.RetryAfterS {
							t.Errorf("offer %s: retry-after %g, want %g", o.id, d.RetryAfterS, c.cfg.RetryAfterS)
						}
					}
				}
				return b, rec, got
			}
			b, rec, got := run()
			for i, o := range c.offers {
				if got[i] != o.want {
					t.Errorf("offer %s: decision %q, want %q", o.id, got[i], o.want)
				}
			}
			if stats := b.AdmissionCounters(); stats != c.wantStats {
				t.Errorf("stats = %+v, want %+v", stats, c.wantStats)
			}
			if strings.Join(rec.drops, " ") != strings.Join(c.wantDrops, " ") {
				t.Errorf("drops = %v, want %v", rec.drops, c.wantDrops)
			}
			if b.QueueDepth() != c.wantDepth {
				t.Errorf("queue depth = %d, want %d", b.QueueDepth(), c.wantDepth)
			}
			// Decisions depend only on deterministic simulation state: a
			// replay of the same offer sequence reproduces them exactly.
			_, _, again := run()
			for i := range got {
				if got[i] != again[i] {
					t.Fatalf("offer %d nondeterministic: %q vs %q", i, got[i], again[i])
				}
			}
		})
	}
}

// Quota in-flight counts must release as jobs finish: a tenant refused
// at its quota is admitted again once one of its jobs completes.
func TestAdmissionQuotaReleasesOnFinish(t *testing.T) {
	b := admissionBroker(t, AdmissionConfig{Policy: AdmitQuota, TenantQuota: 2}, &dropRecorder{})
	if d := b.Offer(mkJob("a1", "acme")); !d.Admitted {
		t.Fatal("a1 refused")
	}
	if d := b.Offer(mkJob("a2", "acme")); !d.Admitted {
		t.Fatal("a2 refused")
	}
	if got := b.TenantInFlight("acme"); got != 2 {
		t.Fatalf("in-flight = %d, want 2", got)
	}
	if d := b.Offer(mkJob("a3", "acme")); d.Admitted {
		t.Fatal("a3 admitted over quota")
	}
	// Run both jobs to completion; the quota frees up.
	b.Env().Run()
	if got := b.TenantInFlight("acme"); got != 0 {
		t.Fatalf("in-flight after drain = %d, want 0", got)
	}
	if d := b.Offer(mkJob("a4", "acme")); !d.Admitted {
		t.Fatal("a4 refused after quota released")
	}
}

// Offer with no admission policy is Admit: nothing is ever refused, and
// the steady-state cycle through Offer stays allocation-free (the HTTP
// submit path's post-decode half rides on this).
func TestOfferSteadyStateAllocFree(t *testing.T) {
	b := newSteadyStateBroker(t)
	if err := b.SetAdmission(AdmissionConfig{Policy: AdmitQuota, TenantQuota: 4}); err != nil {
		t.Fatal(err)
	}
	j := mkJob("steady", "acme")
	for i := 0; i < 64; i++ {
		if d := b.Offer(j); !d.Admitted {
			t.Fatalf("warm-up offer %d refused: %+v", i, d)
		}
		b.Env().Run()
	}
	avg := testing.AllocsPerRun(200, func() {
		b.Offer(j)
		b.Env().Run()
	})
	if avg != 0 {
		t.Fatalf("steady-state Offer cycle allocates %.2f/op, want 0", avg)
	}
}

// Dropped jobs must not poison the records layer: a shed job stops
// counting as pending and leaves no row, the rows behind it still seal,
// and the shed reaches the recorders as the one drop, with its reason.
func TestAdmissionRecordsIntegration(t *testing.T) {
	m := records.NewManager()
	drops := &dropRecorder{}
	b := admissionBroker(t, AdmissionConfig{Policy: AdmitShed, MaxQueue: 1}, MultiRecorder{ManagerRecorder{M: m}, drops})
	for i := 0; i < 4; i++ {
		b.Offer(mkJob(fmt.Sprintf("j%d", i), ""))
	}
	// j0, j1 run; j2 queued then shed by j3.
	if _, err := b.Drain(); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if got := fmt.Sprint(drops.drops); got != "[j2@0:shed]" {
		t.Fatalf("drops = %s, want [j2@0:shed]", got)
	}
	if got := m.NumPending(); got != 0 {
		t.Fatalf("pending = %d, want 0 (shed job must not linger)", got)
	}
	if got := m.NumFinished(); got != 3 {
		t.Fatalf("finished = %d, want 3", got)
	}
	var ids []string
	for _, s := range m.Finished() {
		ids = append(ids, s.JobID)
	}
	if got := fmt.Sprint(ids); got != "[j0 j1 j3]" {
		t.Fatalf("rows %s, want [j0 j1 j3]", got)
	}
}

func TestSetAdmissionValidation(t *testing.T) {
	b := admissionBroker(t, AdmissionConfig{}, &dropRecorder{})
	cases := []AdmissionConfig{
		{Policy: "bogus"},
		{Policy: AdmitReject},                 // missing queue limit
		{Policy: AdmitShed, MaxQueue: -1},     // bad queue limit
		{Policy: AdmitQuota},                  // missing quota
		{Policy: AdmitQuota, TenantQuota: -2}, // bad quota
		{Policy: AdmitReject, MaxQueue: 1, RetryAfterS: -1},
	}
	for _, cfg := range cases {
		if err := b.SetAdmission(cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
}
