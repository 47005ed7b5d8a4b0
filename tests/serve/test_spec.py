"""Serve specs: validation, canonical keys, stream digests."""

import pytest

from repro.errors import ServeError
from repro.serve import (
    DEFAULT_CATALOG,
    DEFAULT_TENANTS,
    RequestSpec,
    ServeSpec,
    TenantSpec,
    request_stream_digest,
)


def request(request_id=0, tenant="iot", module="aes_core",
            arrival_ps: int = 100, deadline_ps: int = 10_000,
            priority=2):
    return RequestSpec(request_id=request_id, tenant=tenant,
                       module=module, arrival_ps=arrival_ps,
                       deadline_ps=deadline_ps, priority=priority)


class TestTenantSpec:
    def test_valid_defaults(self):
        tenant = TenantSpec("t", weight=1.0, modules=("aes_core",))
        assert tenant.priority == 2

    @pytest.mark.parametrize("kwargs", [
        dict(name=""),
        dict(weight=0.0),
        dict(modules=()),
        dict(priority=-1),
        dict(deadline_us=0.0),
    ])
    def test_rejects_bad_fields(self, kwargs):
        base = dict(name="t", weight=1.0, modules=("aes_core",))
        base.update(kwargs)
        with pytest.raises(ServeError):
            TenantSpec(**base)


class TestRequestSpec:
    def test_deadline_after_arrival(self):
        with pytest.raises(ServeError):
            request(arrival_ps=100, deadline_ps=100)

    def test_sort_key_orders_urgency_first(self):
        urgent = request(request_id=9, priority=0, deadline_ps=50_000)
        relaxed = request(request_id=1, priority=2, deadline_ps=5_000)
        assert urgent.sort_key < relaxed.sort_key

    def test_canonical_round_trips_fields(self):
        line = request(request_id=7).canonical()
        assert line == "7|iot|aes_core|100|10000|2"


class TestStreamDigest:
    def test_order_insensitive(self):
        stream = [request(request_id=i, arrival_ps=100 + i)
                  for i in range(5)]
        assert request_stream_digest(stream) \
            == request_stream_digest(list(reversed(stream)))

    def test_sensitive_to_content(self):
        one = [request(request_id=0)]
        two = [request(request_id=0, module="fir_filter")]
        assert request_stream_digest(one) != request_stream_digest(two)


class TestServeSpec:
    def test_defaults_validate(self):
        spec = ServeSpec()
        assert spec.boards == 4
        assert spec.modules == DEFAULT_CATALOG
        assert spec.tenants == DEFAULT_TENANTS

    @pytest.mark.parametrize("kwargs", [
        dict(boards=0),
        dict(controller="nope"),
        dict(frequency_mhz=0.0),
        dict(arrival="fractal"),
        dict(rate_rps=-1.0),
        dict(load=0.0),
        dict(requests=0),
        dict(queue_limit=0),
        dict(tenant_limit=0),
        dict(batch_limit=0),
        dict(warm_ps=0),
    ])
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(ServeError):
            ServeSpec(**kwargs)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("field", ["load", "rate_rps",
                                       "frequency_mhz"])
    def test_rejects_non_finite_numbers(self, field, value):
        with pytest.raises(ServeError, match=f"{field} must be finite"):
            ServeSpec(**{field: float(value)})

    def test_rejects_tenant_module_not_in_catalog(self):
        tenants = (TenantSpec("t", 1.0, modules=("missing",)),)
        with pytest.raises(ServeError, match="not in"):
            ServeSpec(tenants=tenants)

    def test_module_names_sorted(self):
        assert ServeSpec().module_names == tuple(
            sorted(m.name for m in DEFAULT_CATALOG))

    def test_key_renders_load_or_rate(self):
        assert "load0.8" in ServeSpec().key
        assert "rate5000" in ServeSpec(rate_rps=5000.0).key

    def test_key_flags(self):
        spec = ServeSpec(shed_infeasible=True, preempt=True)
        assert spec.key.endswith("+shed+preempt")

    def test_equal_specs_equal_keys(self):
        assert ServeSpec().key == ServeSpec().key

    def test_with_load(self):
        spec = ServeSpec(rate_rps=1000.0).with_load(1.5)
        assert spec.load == 1.5
        assert spec.rate_rps == 0.0
