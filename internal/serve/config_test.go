package serve

import (
	"errors"
	"testing"
)

// TestConfigWithDefaults pins the three-way field contract: zero selects
// the default, the exact disable sentinel stays legal, and every other
// out-of-range value is rejected with the typed ErrConfig instead of being
// silently reinterpreted. CacheSize is ignored whatever its value.
func TestConfigWithDefaults(t *testing.T) {
	cases := []struct {
		name    string
		cfg     Config
		wantErr bool
		check   func(t *testing.T, c Config)
	}{
		{name: "zero value selects defaults", cfg: Config{}, check: func(t *testing.T, c Config) {
			if c.MaxRequestVertices != 1024 || c.MaxInFlight != 1024 {
				t.Fatalf("defaults = %+v", c)
			}
		}},
		{name: "InFlightUnlimited disables shedding", cfg: Config{MaxInFlight: InFlightUnlimited}, check: func(t *testing.T, c Config) {
			if c.MaxInFlight != InFlightUnlimited {
				t.Fatalf("MaxInFlight = %d", c.MaxInFlight)
			}
		}},
		{name: "explicit values pass through", cfg: Config{MaxRequestVertices: 3, MaxInFlight: 5}, check: func(t *testing.T, c Config) {
			if c.MaxRequestVertices != 3 || c.MaxInFlight != 5 {
				t.Fatalf("explicit = %+v", c)
			}
		}},
		{name: "CacheSize is ignored", cfg: Config{CacheSize: -2}, check: func(t *testing.T, c Config) {
			if c.MaxRequestVertices != 1024 || c.MaxInFlight != 1024 {
				t.Fatalf("with CacheSize = %+v", c)
			}
		}},
		{name: "negative MaxRequestVertices rejected", cfg: Config{MaxRequestVertices: -1}, wantErr: true},
		{name: "negative MaxInFlight beyond sentinel rejected", cfg: Config{MaxInFlight: -7}, wantErr: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := tc.cfg.withDefaults()
			if tc.wantErr {
				if !errors.Is(err, ErrConfig) {
					t.Fatalf("err = %v, want ErrConfig", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			tc.check(t, got)
		})
	}
}

// TestNewRejectsBadConfig pins that the constructor surfaces ErrConfig —
// a misconfigured fleet replica must fail at boot, not at first request.
func TestNewRejectsBadConfig(t *testing.T) {
	ds, model, _ := testProblem(t)
	if _, err := New(ds, model, Config{MaxInFlight: -2}); !errors.Is(err, ErrConfig) {
		t.Fatalf("New err = %v, want ErrConfig", err)
	}
}
