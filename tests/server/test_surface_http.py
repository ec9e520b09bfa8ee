"""The surface tier over the wire: probes, sweeps, client helpers.

Real sockets like the rest of the server suite. The artifact is warmed
once per module (a tiny 1-D grid) and served by a ``SwapServer`` whose
config points at it -- the exact deployment shape of
``repro-swaps serve --surface``.
"""

from __future__ import annotations

import json
import urllib.request

import pytest

from repro.core.parameters import SwapParameters
from repro.service.keys import KEY_VERSION
from repro.surface import AxisSpec, SurfaceSpec, warm_surface


@pytest.fixture(scope="module")
def artifact_path(tmp_path_factory):
    spec = SurfaceSpec(
        axes=(AxisSpec("pstar", 1.6, 2.4, 17),),
        params=SwapParameters.default(),
        default_tolerance=1e-2,
    )
    path = tmp_path_factory.mktemp("http-surface") / "line.srf"
    warm_surface(spec, path)
    return str(path)


@pytest.fixture()
def surface_server(make_server, artifact_path):
    return make_server(surface=artifact_path, tolerance=1e-2)


def get_json(server, path: str) -> dict:
    with urllib.request.urlopen(
        f"http://127.0.0.1:{server.port}{path}", timeout=10.0
    ) as response:
        return json.loads(response.read().decode("utf-8"))


class TestProbes:
    def test_readyz_reports_the_artifact(self, surface_server, artifact_path):
        body = get_json(surface_server, "/readyz")
        assert body["status"] == "ready"
        surface = body["surface"]
        assert surface["path"] == artifact_path
        assert surface["axes"][0]["name"] == "pstar"
        assert len(surface["checksum"]) == 64

    def test_version_reports_surface_and_key_schema(self, surface_server):
        body = get_json(surface_server, "/version")
        assert body["key_version"] == KEY_VERSION
        assert body["surface"]["key_version"] == KEY_VERSION
        assert body["surface"]["points"] == 17

    def test_surfaceless_server_reports_null(self, make_server):
        server = make_server()
        assert get_json(server, "/readyz")["surface"] is None
        assert get_json(server, "/version")["surface"] is None


class TestSweepOverTheWire:
    def test_tolerance_param_routes_to_the_surface(self, surface_server):
        body = get_json(
            surface_server, "/v1/sweep?pstars=1.8,2.0&tolerance=1e-2"
        )
        assert body["ok"] and body["count"] == 2
        for point in body["results"]:
            assert point["source"] == "surface"
            assert 0.0 < point["bound"] <= 1e-2
            assert 0.0 <= point["success_rate"] <= 1.0

    def test_off_surface_points_fall_through_exactly(self, surface_server):
        body = get_json(
            surface_server, "/v1/sweep?pstars=3.5&tolerance=1e-2"
        )
        point = body["results"][0]
        assert point["source"] == "scalar"
        assert "bound" not in point  # exact answers carry no bound

    def test_no_tolerance_means_exact_despite_config_default(self, make_server, artifact_path):
        # config tolerance applies; the default config (None) keeps
        # tolerance-less sweeps exact even with a surface loaded
        server = make_server(surface=artifact_path)
        point = get_json(server, "/v1/sweep?pstars=2.0")["results"][0]
        assert point["source"] == "scalar"

    def test_config_tolerance_is_the_default_grant(self, surface_server):
        point = get_json(surface_server, "/v1/sweep?pstars=2.0")["results"][0]
        assert point["source"] == "surface"

    def test_explicit_zero_tolerance_overrides_config(self, surface_server):
        point = get_json(
            surface_server, "/v1/sweep?pstars=2.0&tolerance=0"
        )["results"][0]
        assert point["source"] == "scalar"

    def test_surface_metrics_visible_on_metrics_endpoint(self, surface_server):
        get_json(surface_server, "/v1/sweep?pstars=2.0&tolerance=1e-2")
        url = f"http://127.0.0.1:{surface_server.port}/metrics"
        with urllib.request.urlopen(url, timeout=10.0) as response:
            text = response.read().decode("utf-8")
        assert "repro_surface_hits_total" in text
        assert 'repro_surface_loads_total{outcome="ok"}' in text


class TestClientHelpers:
    def test_sweep_passes_tolerance(self, surface_server, make_client):
        client = make_client(surface_server)
        points = client.sweep([1.8, 2.0], tolerance=1e-2)
        assert [p["source"] for p in points] == ["surface", "surface"]

    def test_server_info_summarises_version_document(
        self, surface_server, make_client
    ):
        info = make_client(surface_server).server_info()
        assert info["server"] == "repro-swaps"
        assert info["key_version"] == KEY_VERSION
        assert info["surface"]["points"] == 17

    def test_server_info_without_surface(self, make_server, make_client):
        info = make_client(make_server()).server_info()
        assert info["surface"] is None
