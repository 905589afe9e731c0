package idxd

import (
	"testing"
	"time"

	"dsasim/internal/dsa"
	"dsasim/internal/mem"
	"dsasim/internal/sim"
)

func testRegistry(t *testing.T) *Registry {
	t.Helper()
	e := sim.New()
	sys := mem.NewSystem(e, mem.SystemConfig{
		Sockets: 1,
		LLC:     mem.LLCConfig{Capacity: 105 << 20},
		NodeDefs: []mem.NodeConfig{
			{Socket: 0, Kind: mem.DRAM, ReadLat: 110 * time.Nanosecond, WriteLat: 110 * time.Nanosecond, ReadGBps: 120, WriteGBps: 75},
		},
	})
	return NewRegistry(e, sys)
}

func TestLifecycle(t *testing.T) {
	r := testRegistry(t)
	if _, err := r.Discover("dsa0", 0); err != nil {
		t.Fatal(err)
	}
	ent, err := r.Get("dsa0")
	if err != nil {
		t.Fatal(err)
	}
	if ent.State != Disabled {
		t.Fatalf("initial state = %v", ent.State)
	}
	if err := r.Enable("dsa0"); err == nil {
		t.Fatal("enabled an unconfigured device")
	}
	if err := r.Configure(DefaultSpec("dsa0")); err != nil {
		t.Fatal(err)
	}
	if ent.State != Configured {
		t.Fatalf("state after configure = %v", ent.State)
	}
	if err := r.Enable("dsa0"); err != nil {
		t.Fatal(err)
	}
	if ent.State != Enabled {
		t.Fatalf("state after enable = %v", ent.State)
	}
	if err := r.Configure(DefaultSpec("dsa0")); err == nil {
		t.Fatal("reconfigured an enabled device")
	}
}

func TestOpenWQ(t *testing.T) {
	r := testRegistry(t)
	if _, err := r.Discover("dsa0", 0); err != nil {
		t.Fatal(err)
	}
	spec := DeviceSpec{
		Name: "dsa0",
		Groups: []GroupSpec{{
			Engines: 2,
			WQs: []WQSpec{
				{Name: "dsa0/wq0.0", Mode: "dedicated", Size: 16},
				{Name: "dsa0/wq0.1", Mode: "shared", Size: 16, Priority: 10},
			},
		}},
	}
	if err := r.Configure(spec); err != nil {
		t.Fatal(err)
	}
	if _, err := r.OpenWQ("dsa0", "dsa0/wq0.0"); err == nil {
		t.Fatal("opened WQ on non-enabled device")
	}
	if err := r.Enable("dsa0"); err != nil {
		t.Fatal(err)
	}
	wq, err := r.OpenWQ("dsa0", "dsa0/wq0.1")
	if err != nil {
		t.Fatal(err)
	}
	if wq.Mode != dsa.Shared || wq.Priority != 10 {
		t.Fatalf("WQ attrs = %v prio %d", wq.Mode, wq.Priority)
	}
	if _, err := r.OpenWQ("dsa0", "nope"); err == nil {
		t.Fatal("opened nonexistent WQ")
	}
	names, err := r.WQNames("dsa0")
	if err != nil || len(names) != 2 {
		t.Fatalf("WQNames = %v, %v", names, err)
	}
}

func TestConfigureJSON(t *testing.T) {
	r := testRegistry(t)
	if _, err := r.Discover("dsa0", 0); err != nil {
		t.Fatal(err)
	}
	doc := []byte(`[
	  {"dev":"dsa0","groups":[
	    {"grouped_engines":4,"grouped_workqueues":[
	      {"dev":"dsa0/wq0.0","mode":"dedicated","size":32}
	    ]}
	  ]}
	]`)
	if err := r.ConfigureJSON(doc); err != nil {
		t.Fatal(err)
	}
	if err := r.Enable("dsa0"); err != nil {
		t.Fatal(err)
	}
	names, err := r.WQNames("dsa0")
	if err != nil || len(names) != 1 || names[0] != "dsa0/wq0.0" {
		t.Fatalf("WQNames = %v, %v; want [dsa0/wq0.0]", names, err)
	}
	wq, err := r.OpenWQ("dsa0", names[0])
	if err != nil {
		t.Fatal(err)
	}
	if wq.Mode != dsa.Dedicated || wq.Size != 32 || len(wq.Dev.Groups()[0].Engines) != 4 {
		t.Fatalf("WQ = %v/%d on %d engines, want dedicated/32 on 4", wq.Mode, wq.Size, len(wq.Dev.Groups()[0].Engines))
	}
}

func TestConfigureJSONRejectsBadMode(t *testing.T) {
	r := testRegistry(t)
	if _, err := r.Discover("dsa0", 0); err != nil {
		t.Fatal(err)
	}
	doc := []byte(`[{"dev":"dsa0","groups":[{"grouped_engines":1,"grouped_workqueues":[{"mode":"bogus","size":8}]}]}]`)
	if err := r.ConfigureJSON(doc); err == nil {
		t.Fatal("accepted bogus WQ mode")
	}
}

func TestDuplicateDiscovery(t *testing.T) {
	r := testRegistry(t)
	if _, err := r.Discover("dsa0", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Discover("dsa0", 0); err == nil {
		t.Fatal("duplicate discovery succeeded")
	}
	if got := r.Names(); len(got) != 1 || got[0] != "dsa0" {
		t.Fatalf("Names = %v", got)
	}
}
