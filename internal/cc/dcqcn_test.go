package cc

import (
	"testing"
	"time"
)

func TestDCQCNStartsAtLineRate(t *testing.T) {
	d := NewDCQCN(Config{MSS: mss, LineRate: 25e9})
	bps, ok := d.Rate()
	if !ok || bps != 25e9 {
		t.Fatalf("initial rate = %v, %v", bps, ok)
	}
	if d.Name() != "dcqcn" {
		t.Fatalf("name = %q", d.Name())
	}
	if d.Window() <= 0 {
		t.Fatal("non-positive window backstop")
	}
}

func TestDCQCNDecreasesOnMarksIncreasesAfter(t *testing.T) {
	d := NewDCQCN(Config{MSS: mss})
	now := time.Duration(0)
	// Sustained marks: rate must fall well below line rate.
	for i := 0; i < 50; i++ {
		now += 60 * time.Microsecond
		d.OnAck(now, Signal{AckedBytes: mss, ECN: true, RTT: us(50)})
	}
	low, _ := d.Rate()
	if low >= 5e9 {
		t.Fatalf("rate after sustained marks = %.2f Gbps", low/1e9)
	}
	if d.alpha < 0.5 {
		t.Fatalf("alpha = %v after sustained marks", d.alpha)
	}
	// Marks stop: fast recovery then additive increase bring it back up.
	for i := 0; i < 3000; i++ {
		now += 60 * time.Microsecond
		d.OnAck(now, Signal{AckedBytes: mss, RTT: us(50)})
	}
	high, _ := d.Rate()
	if high < 2*low {
		t.Fatalf("rate did not recover: %.2f -> %.2f Gbps", low/1e9, high/1e9)
	}
	if high > 10e9 {
		t.Fatalf("rate exceeded line rate: %.2f Gbps", high/1e9)
	}
	if d.alpha > 0.1 {
		t.Fatalf("alpha did not decay: %v", d.alpha)
	}
}

func TestDCQCNFastRecoveryPrecedesAdditive(t *testing.T) {
	d := NewDCQCN(Config{MSS: mss})
	now := time.Duration(0)
	// Two decreases so the remembered target sits below line rate (a first
	// cut from line rate leaves target == line rate, which caps additive
	// increase trivially).
	for i := 0; i < 2; i++ {
		now += 60 * time.Microsecond
		d.OnAck(now, Signal{AckedBytes: mss, ECN: true, RTT: us(50)})
	}
	rcAfterCut, _ := d.Rate()
	target := d.rt
	// Five clean periods: fast recovery halves the distance to target each
	// time without raising the target.
	for i := 0; i < 5; i++ {
		now += 60 * time.Microsecond
		d.OnAck(now, Signal{AckedBytes: mss, RTT: us(50)})
	}
	if d.rt != target {
		t.Fatalf("target moved during fast recovery: %v -> %v", target, d.rt)
	}
	rec, _ := d.Rate()
	if rec <= rcAfterCut || rec > target {
		t.Fatalf("fast recovery rate %v not in (%v, %v]", rec, rcAfterCut, target)
	}
	// Sixth period: additive increase raises the target.
	now += 60 * time.Microsecond
	d.OnAck(now, Signal{AckedBytes: mss, RTT: us(50)})
	if d.rt <= target {
		t.Fatal("additive increase did not raise the target")
	}
}

func TestDCQCNLossHalves(t *testing.T) {
	d := NewDCQCN(Config{MSS: mss})
	d.OnLoss(time.Millisecond)
	bps, _ := d.Rate()
	if bps != 5e9 {
		t.Fatalf("post-loss rate = %v", bps)
	}
	// Second loss inside the same period is ignored.
	d.OnLoss(time.Millisecond + time.Microsecond)
	if got, _ := d.Rate(); got != 5e9 {
		t.Fatalf("double halving: %v", got)
	}
}

func TestDCQCNRateFloor(t *testing.T) {
	d := NewDCQCN(Config{MSS: mss})
	now := time.Duration(0)
	for i := 0; i < 1000; i++ {
		now += 60 * time.Microsecond
		d.OnAck(now, Signal{AckedBytes: mss, ECN: true, RTT: us(50)})
	}
	if bps, _ := d.Rate(); bps != dcqcnMinRate {
		t.Fatalf("rate %v after sustained marks, want the %v floor", bps, dcqcnMinRate)
	}
}

func TestDCQCNFactory(t *testing.T) {
	a, err := New(KindDCQCN, Config{MSS: mss})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := a.Rate(); !ok {
		t.Fatal("factory DCQCN not rate-based")
	}
}
