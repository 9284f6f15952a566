"""Tests for the ExperimentSpec currency (fingerprints, round-trips,
memoized execution through run_spec)."""

import pytest

from repro.harness import experiments
from repro.harness.experiments import clear_cache, run_spec
from repro.harness.spec import SPEC_VERSION, ExperimentSpec


class TestConstruction:
    def test_overrides_normalized_from_dict(self):
        a = ExperimentSpec("mp3d", "lrc", overrides={"line_size": 64, "mem_bw": 4.0})
        b = ExperimentSpec(
            "mp3d", "lrc", overrides=(("mem_bw", 4.0), ("line_size", 64))
        )
        assert a == b
        assert hash(a) == hash(b)
        assert a.overrides == (("line_size", 64), ("mem_bw", 4.0))

    def test_specs_are_hashable_and_comparable(self):
        a = ExperimentSpec("mp3d", "lrc", n_procs=4, small=True)
        b = ExperimentSpec("mp3d", "lrc", n_procs=4, small=True)
        c = ExperimentSpec("mp3d", "erc", n_procs=4, small=True)
        assert a == b and a is not b
        assert len({a, b, c}) == 2

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            ExperimentSpec("mp3d", "lrc", kind="quantum")

    def test_unknown_app_rejected(self):
        with pytest.raises(ValueError, match="application"):
            ExperimentSpec("linpack", "lrc")

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ValueError, match="protocol"):
            ExperimentSpec("mp3d", "mesi")

    def test_bad_n_procs_rejected(self):
        with pytest.raises(ValueError, match="n_procs"):
            ExperimentSpec("mp3d", "lrc", n_procs=0)

    def test_with_replaces_fields(self):
        a = ExperimentSpec("mp3d", "lrc", n_procs=4)
        b = a.with_(protocol="erc")
        assert b.protocol == "erc" and b.app == "mp3d" and b.n_procs == 4
        assert a.protocol == "lrc"  # frozen original untouched


class TestDerived:
    def test_machine_config_is_serial_only(self):
        spec = ExperimentSpec("mp3d", "lrc", n_procs=4, small=True)
        assert spec.machine_config(shards=1) == spec.machine_config()
        with pytest.raises(ValueError, match="shards=2"):
            spec.machine_config(shards=2)

    def test_config_applies_kind_and_overrides(self):
        default = ExperimentSpec("mp3d", "lrc", n_procs=8, overrides={"line_size": 64})
        future = ExperimentSpec("mp3d", "lrc", kind="future", n_procs=8)
        assert default.config().line_size == 64
        assert default.config().n_procs == 8
        assert future.config().mem_setup == 40
        assert future.config().line_size == 256

    def test_app_params_follow_small(self):
        big = ExperimentSpec("gauss", "lrc")
        small = ExperimentSpec("gauss", "lrc", small=True)
        assert big.app_params()["n"] > small.app_params()["n"]

    def test_label_mentions_distinguishing_fields(self):
        s = ExperimentSpec(
            "mp3d", "lrc", kind="future", n_procs=8, classify=True, small=True,
            overrides={"line_size": 64},
        )
        for needle in ("mp3d", "lrc", "future", "p=8", "classify", "small", "line_size=64"):
            assert needle in s.label()


class TestFingerprint:
    def test_pinned_values(self):
        # Pinned: silent fingerprint drift would orphan every stored
        # result.  A deliberate change must bump SPEC_VERSION.
        assert SPEC_VERSION == 3
        s = ExperimentSpec("mp3d", "lrc", n_procs=4, small=True)
        assert s.fingerprint() == "de8f70eba74e2ded53ead757"
        o = ExperimentSpec("mp3d", "lrc", n_procs=4, small=True,
                           overrides={"line_size": 64})
        assert o.fingerprint() == "449d7ac385ec01df322fc34f"

    def test_equal_specs_equal_fingerprints(self):
        a = ExperimentSpec("fft", "erc", overrides={"mem_bw": 4.0})
        b = ExperimentSpec("fft", "erc", overrides=(("mem_bw", 4.0),))
        assert a.fingerprint() == b.fingerprint()

    def test_every_field_is_significant(self):
        base = ExperimentSpec("mp3d", "lrc", n_procs=4, small=True)
        variants = [
            base.with_(app="gauss"),
            base.with_(protocol="erc"),
            base.with_(kind="future"),
            base.with_(n_procs=8),
            base.with_(classify=True),
            base.with_(small=False),
            base.with_(overrides=(("line_size", 64),)),
        ]
        prints = {v.fingerprint() for v in variants}
        assert base.fingerprint() not in prints
        assert len(prints) == len(variants)

    def test_roundtrip_through_dict(self):
        s = ExperimentSpec(
            "cholesky", "lrc-ext", kind="future", n_procs=8, classify=True,
            small=True, overrides={"mem_setup": 40},
        )
        back = ExperimentSpec.from_dict(s.to_dict())
        assert back == s
        assert back.fingerprint() == s.fingerprint()


class TestTransientFields:
    def test_check_invariants_not_fingerprinted(self):
        # The checker is pure observation: a checked and an unchecked
        # spec must share one result-store slot and one memo entry.
        base = ExperimentSpec("mp3d", "lrc", n_procs=4, small=True)
        checked = base.with_(check_invariants=True)
        assert checked.check_invariants
        assert checked.fingerprint() == base.fingerprint()
        assert checked == base
        assert hash(checked) == hash(base)

    def test_to_dict_roundtrips_check_invariants(self):
        s = ExperimentSpec("mp3d", "lrc", small=True, check_invariants=True)
        d = s.to_dict()
        assert d["check_invariants"] is True
        assert ExperimentSpec.from_dict(d).check_invariants

    def test_from_dict_accepts_old_dicts(self):
        # Dicts persisted before the field existed must still load.
        s = ExperimentSpec("mp3d", "lrc", small=True)
        d = s.to_dict()
        d.pop("check_invariants")
        back = ExperimentSpec.from_dict(d)
        assert back == s
        assert not back.check_invariants


class TestBackCompat:
    def test_equal_specs_share_one_memo_entry(self):
        clear_cache()
        r1 = run_spec(ExperimentSpec(
            "mp3d", "lrc", n_procs=4, small=True, overrides={"line_size": 64}
        ))
        r2 = run_spec(ExperimentSpec(
            "mp3d", "lrc", n_procs=4, small=True, overrides=(("line_size", 64),)
        ))
        assert r1 is r2  # dict and tuple overrides: one simulation

    def test_unknown_module_attr_still_raises(self):
        with pytest.raises(AttributeError):
            experiments._NOT_A_THING


class TestSeedDeterminism:
    """Everything downstream of a spec is a pure function of it.

    The only RNG sites in src/ are seeded from ``config.seed`` (apps via
    ``np.random.default_rng(config.seed + salt)``, the conformance
    generator via ``random.Random(seed)``), so two identical specs must
    produce identical fingerprints *and* bit-identical RunResults from
    independent machine instances.
    """

    @pytest.mark.parametrize("app,proto", [
        ("mp3d", "lrc"),          # heavy np.random use in the front end
        ("barnes", "erc"),        # rng-built quadtrees
        ("fuzz", "lrc-ext"),      # random.Random program generation
    ])
    def test_identical_specs_identical_results(self, app, proto):
        a = ExperimentSpec(app, proto, n_procs=4, small=True,
                           overrides={"seed": 42})
        b = ExperimentSpec(app, proto, n_procs=4, small=True,
                           overrides={"seed": 42})
        assert a.fingerprint() == b.fingerprint()
        # Fresh runs, no memo: bit-identical numbers all the way down.
        assert a.run().to_dict() == b.run().to_dict()

    def test_seed_override_changes_fingerprint_and_result(self):
        a = ExperimentSpec("fuzz", "lrc", n_procs=4, small=True,
                           overrides={"seed": 1})
        b = ExperimentSpec("fuzz", "lrc", n_procs=4, small=True,
                           overrides={"seed": 2})
        assert a.fingerprint() != b.fingerprint()
        assert a.run().to_dict() != b.run().to_dict()

    def test_quality_model_seed_determinism(self):
        import numpy as np

        from repro.apps.mp3d_quality import run_quality_model

        a = run_quality_model(particles=128, steps=3, mode="lazy", seed=42)
        b = run_quality_model(particles=128, steps=3, mode="lazy", seed=42)
        assert np.array_equal(a, b)
