package service

import (
	"expvar"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// TestExpvarNames pins the /debug/vars naming convention,
// lower_snake_case, for every expvar the process publishes (the
// service's "cbwsd" among them) and for every json key of Vars and
// TenantVars, the counters served under "cbwsd".
func TestExpvarNames(t *testing.T) {
	newTestService(t, testConfig())
	snake := regexp.MustCompile(`^[a-z][a-z0-9_]*$`)
	if expvar.Get("cbwsd") == nil {
		t.Fatal(`no expvar published as "cbwsd"`)
	}
	expvar.Do(func(kv expvar.KeyValue) {
		if !snake.MatchString(kv.Key) {
			t.Errorf("expvar %q is not lower_snake_case", kv.Key)
		}
	})
	for _, typ := range []reflect.Type{reflect.TypeFor[Vars](), reflect.TypeFor[TenantVars]()} {
		for i := range typ.NumField() {
			f := typ.Field(i)
			key, _, _ := strings.Cut(f.Tag.Get("json"), ",")
			if !snake.MatchString(key) {
				t.Errorf("%s.%s serves as %q, not lower_snake_case", typ.Name(), f.Name, key)
			}
		}
	}
}
