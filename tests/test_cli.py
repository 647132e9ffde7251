"""CLI surface: scenario parsing, subcommands, byte-stable outputs."""

import json
import math
import warnings

import numpy as np
import pytest
from scipy import integrate

from thzdiv import cli
from thzdiv.ber_analytic import ber_exact_quadrature
from thzdiv.channel_models import (
    AlphaMuA,
    alpha_mu_a_preset,
    envelope_moment,
    power_pdf,
)
from thzdiv.cli import (
    CSV_HEADER,
    ScenarioError,
    load_scenario,
    main,
    read_curve_csv,
)
from thzdiv.sum_dist import IidAlphaMuSum, iid_sum_power_pdf, sum_power_pdf

SCN_A = {
    "branches": [{"type": "alpha_mu_a", "preset": "indoor_1", "copies": 2}],
    "g": 0.5,
    "snr_db": {"start": 0, "stop": 10, "step": 5},
    "mc": {"trials": 20000, "seed": 11},
}

# Unequal form-A branches: no delta series, no mixture.
UNEQUAL_A = [{"preset": "indoor_1", "z_hat": 0.8}, {"preset": "indoor_2"}]

SCN_MG = {
    "branches": [{"preset": "mg_config1"}, {"preset": "mg_config2"}],
    "g": 1.0,
    "snr_db": {"start": -30, "stop": -20, "step": 5},
}


def write_scn(tmp_path, doc, name="scn.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _bers(scn, method, tmp_path):
    """The ber column of one `ber` run."""
    out = tmp_path / f"{method}.csv"
    assert main(["ber", "--scenario", scn, "--method", method,
                 "--out", str(out)]) == 0
    return [p.ber for p in read_curve_csv(str(out)).points]


class TestScenarioParsing:
    def test_grid_db_conversion(self, tmp_path):
        scenario, mc, echo = load_scenario(write_scn(tmp_path, SCN_A))
        assert scenario.snr_grid == pytest.approx((1.0, 10**0.5, 10.0))
        assert scenario.l_branches == 2
        assert mc == {"trials": 20000, "seed": 11, "method": "conditional_q"}
        assert echo["g"] == 0.5

    def test_unknown_field_rejected_with_path(self, tmp_path):
        doc = dict(SCN_A)
        doc["branches"] = [dict(doc["branches"][0], typo=1)]
        with pytest.raises(ScenarioError, match=r"branches\[0\].*typo"):
            load_scenario(write_scn(tmp_path, doc))

    def test_unknown_root_field_rejected(self, tmp_path):
        doc = dict(SCN_A, extra=True)
        with pytest.raises(ScenarioError, match="extra"):
            load_scenario(write_scn(tmp_path, doc))

    def test_missing_branches_rejected(self, tmp_path):
        doc = {k: v for k, v in SCN_A.items() if k != "branches"}
        with pytest.raises(ScenarioError, match="branches"):
            load_scenario(write_scn(tmp_path, doc))

    def test_non_bpsk_rejected(self, tmp_path):
        doc = dict(SCN_A, modulation="qpsk")
        with pytest.raises(ScenarioError, match="bpsk"):
            load_scenario(write_scn(tmp_path, doc))

    def test_invalid_json_reports_location(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{ nope }")
        with pytest.raises(ScenarioError, match="line 1"):
            load_scenario(str(path))

    def test_explicit_mixture_components(self, tmp_path):
        doc = dict(SCN_MG)
        doc["branches"] = [{
            "type": "mixture_gamma",
            "components": [[0.6, 3.0, 0.1], [0.4, 10.0, 0.05]],
        }]
        scenario, _, _ = load_scenario(write_scn(tmp_path, doc))
        assert scenario.branches[0].n_components == 2

    def test_mixed_families_rejected_at_compute(self, tmp_path):
        # exact reads each branch's Laplace table, so it takes the mix;
        # the asymptote has no law for it.
        doc = dict(SCN_A)
        doc["branches"] = [
            {"type": "alpha_mu_a", "preset": "indoor_1"},
            {"preset": "mg_config1"},
        ]
        scn = write_scn(tmp_path, doc)
        assert _bers(scn, "exact", tmp_path) == _bers(scn, "mgf", tmp_path)
        rc = main(["ber", "--scenario", scn, "--method", "asymptotic",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 1


class TestBerSubcommand:
    def test_exact_roundtrip(self, tmp_path):
        scn = write_scn(tmp_path, SCN_A)
        out = tmp_path / "curve.csv"
        assert main(["ber", "--scenario", scn, "--method", "exact",
                     "--out", str(out)]) == 0
        text = out.read_text().splitlines()
        assert text[0] == CSV_HEADER
        assert len(text) == 4
        curve = read_curve_csv(str(out))
        assert len(curve.points) == 3
        assert all(0.0 < p.ber < 0.5 for p in curve.points)
        sidecar = json.loads((tmp_path / "curve.csv.json").read_text())
        assert sidecar["scenario"] == SCN_A
        assert sidecar["method"] == "exact"

    def test_exact_takes_the_grid_in_one_call(self, tmp_path, monkeypatch):
        # Form B integrates its mixture density, every other family reads
        # the Craig-form MGF: one call per curve either way.
        calls = {"quad": [], "mgf": []}

        def spy(name, f):
            def call(*args, **kw):
                calls[name].append(args[-1])
                return f(*args, **kw)
            return call

        monkeypatch.setattr(cli, "ber_exact_quadrature",
                            spy("quad", cli.ber_exact_quadrature))
        monkeypatch.setattr(cli, "ber_mg_mgf", spy("mgf", cli.ber_mg_mgf))
        form_b = [{"type": "alpha_mu_b", "preset": "indoor_1", "copies": 2}]
        for name, doc in (("quad", dict(SCN_A, branches=form_b)),
                          ("mgf", SCN_A)):
            assert main(["ber", "--scenario", write_scn(tmp_path, doc),
                         "--method", "exact", "--out",
                         str(tmp_path / "o.csv")]) == 0
            assert len(calls[name]) == 1
            assert list(calls[name][0]) == [1.0, 10.0 ** 0.5, 10.0]

    @pytest.mark.parametrize("method", ["exact", "mgf"])
    @pytest.mark.parametrize("branches", [
        SCN_A["branches"],
        [{"type": "alpha_mu_b", "preset": "indoor_1", "x_mean": x}
         for x in (0.8, 1.25)],
        SCN_MG["branches"]], ids=["form_a", "form_b", "mg"])
    def test_minus_400_db_reads_one_half(self, tmp_path, branches, method):
        # At -400 dB the Q function's scale lies far beyond the sum
        # density's support, and g Upsilon far below every 1/E[X].
        doc = dict(SCN_A, branches=branches,
                   snr_db={"start": -400, "stop": -400, "step": 1})
        out = tmp_path / "o.csv"
        assert main(["ber", "--scenario", write_scn(tmp_path, doc),
                     "--method", method, "--out", str(out)]) == 0
        [point] = read_curve_csv(str(out)).points
        assert point.ber == pytest.approx(0.5, rel=0.0, abs=1e-12)

    @pytest.mark.parametrize("method", ["exact", "mgf"])
    def test_nakagami_mu_0_04_pair_runs_without_warning(self, tmp_path,
                                                        method):
        # Regression: the Laplace-table fill started at subnormal x, where
        # power_pdf's k x^(phi-1) overflowed and the rule read NaN.  Two
        # alpha = 2 branches sum to a gamma power of shape 2 mu, whose
        # Craig form is (1/pi) int (1 + g Upsilon Omega / (mu sin^2))^-2mu.
        mu, g = 0.04, SCN_A["g"]
        doc = dict(SCN_A, branches=[{"type": "alpha_mu_a", "alpha": 2.0,
                                     "mu": mu, "z_hat": 0.7, "copies": 2}])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bers = _bers(write_scn(tmp_path, doc), method, tmp_path)
        omega = envelope_moment(AlphaMuA(2.0, mu, 0.7), 1.0, 2.0)
        ref = [integrate.quad(
            lambda th: (1.0 + g * u * omega / (mu * math.sin(th) ** 2))
            ** (-2.0 * mu), 0.0, 0.5 * math.pi, epsabs=0.0,
            epsrel=1e-13)[0] / math.pi for u in (1.0, 10.0 ** 0.5, 10.0)]
        assert bers == pytest.approx(ref, rel=1e-11, abs=0.0)

    @pytest.mark.parametrize("method", ["exact", "mgf"])
    def test_nakagami_mu_0_02_is_one_accuracy_line(self, tmp_path, capsys,
                                                   method):
        # The fill's first node cannot go below where k x^(phi-1) stays
        # finite, and at mu = 0.02 the rule misses 1e-12 from there: the
        # miss ends the run in one line, with no overflow warning before it.
        doc = dict(SCN_A, branches=[{"type": "alpha_mu_a", "alpha": 2.0,
                                     "mu": 0.02, "z_hat": 0.7, "copies": 2}])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["ber", "--scenario", write_scn(tmp_path, doc),
                       "--method", method, "--out", str(tmp_path / "o.csv")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("numeric accuracy failure: ")
        assert err.count("\n") == 1

    def test_unequal_form_a_asymptote(self, tmp_path):
        # Any alpha-mu list takes the general law: kappa2 = sum alpha mu / 2.
        scn = write_scn(tmp_path, dict(
            SCN_A, branches=UNEQUAL_A,
            snr_db={"start": 30, "stop": 40, "step": 10}))
        exact = _bers(scn, "exact", tmp_path)
        asym = _bers(scn, "asymptotic", tmp_path)
        meta = json.loads(
            (tmp_path / "asymptotic.csv.json").read_text())["metadata"]
        assert meta["source"] == "alpha_mu_gen"
        assert meta["kappa2"] == pytest.approx(
            (3.45388 * 0.51571 + 2.92801 * 0.61844) / 2.0, abs=1e-12)
        assert asym[-1] / exact[-1] == pytest.approx(1.0, abs=0.01)

    def test_exact_curve_at_the_grid_cap(self, tmp_path):
        doc = dict(SCN_A, branches=[
            {"type": "alpha_mu_b", "preset": "indoor_1", "x_mean": x}
            for x in (0.8, 1.25)],
            snr_db={"start": -50, "stop": 49.99, "step": 0.01})
        out = tmp_path / "o.csv"
        assert main(["ber", "--scenario", write_scn(tmp_path, doc),
                     "--method", "exact", "--out", str(out)]) == 0
        bers = [p.ber for p in read_curve_csv(str(out)).points]
        assert len(bers) == 10_000
        assert 0.0 < bers[-1] < bers[0] <= 0.5

    def test_mc_byte_determinism(self, tmp_path):
        scn = write_scn(tmp_path, SCN_A)
        out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        assert main(["ber", "--scenario", scn, "--method", "mc",
                     "--out", str(out1)]) == 0
        assert main(["ber", "--scenario", scn, "--method", "mc",
                     "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert (tmp_path / "r1.csv.json").read_bytes() == \
            (tmp_path / "r2.csv.json").read_bytes()

    def test_asymptotic_emits_law_columns(self, tmp_path):
        scn = write_scn(tmp_path, SCN_A)
        out = tmp_path / "asym.csv"
        assert main(["ber", "--scenario", scn, "--method", "asymptotic",
                     "--out", str(out)]) == 0
        row = out.read_text().splitlines()[1].split(",")
        k1, k2 = float(row[5]), float(row[6])
        assert k2 == pytest.approx(3.45388 / 2 * 0.51571 * 2, abs=1e-9)
        assert k1 > 0.0

    def test_mgf_method_for_mg(self, tmp_path):
        scn = write_scn(tmp_path, SCN_MG)
        out = tmp_path / "mg.csv"
        assert main(["ber", "--scenario", scn, "--method", "mgf",
                     "--out", str(out)]) == 0
        curve = read_curve_csv(str(out))
        bers = [p.ber for p in curve.points]
        assert bers == sorted(bers, reverse=True)

    def test_form_b_routes_honour_g(self, tmp_path):
        doc = dict(SCN_A, g=1.0, snr_db={"start": 0, "stop": 20, "step": 5},
                   branches=[{"type": "alpha_mu_b", "preset": "indoor_1",
                              "copies": 2}])
        scn = write_scn(tmp_path, doc)
        bers = {}
        for method in ("exact", "foxh", "asymptotic"):
            out = tmp_path / f"{method}.csv"
            assert main(["ber", "--scenario", scn, "--method", method,
                         "--out", str(out)]) == 0
            bers[method] = [p.ber for p in read_curve_csv(str(out)).points]
        assert bers["foxh"] == pytest.approx(bers["exact"], rel=1e-9, abs=0.0)
        assert bers["asymptotic"][-1] / bers["exact"][-1] == pytest.approx(
            1.0, abs=0.01)

    @pytest.mark.parametrize("branches", [
        [{"preset": "indoor_1"}],
        [{"type": "alpha_mu_b", "preset": "indoor_1"}],
        [{"preset": "indoor_1", "z_hat": 0.8}, {"preset": "indoor_2"}],
        [{"preset": "indoor_1"}, {"type": "alpha_mu_b", "preset": "indoor_2"},
         {"preset": "mg_config1"}],
    ], ids=["a_mgf", "b_mgf", "unequal_a", "mixed"])
    def test_mgf_applies_to_every_family(self, tmp_path, branches):
        # mgf reads each branch's power density alone; so does exact on
        # every list that is not all form B.
        scn = write_scn(tmp_path, dict(SCN_MG, branches=branches))
        bers = _bers(scn, "mgf", tmp_path)
        assert 0.0 < bers[-1] < bers[0] < 0.5
        if len(branches) > 1:
            assert _bers(scn, "exact", tmp_path) == bers

    @pytest.mark.parametrize("branches,method,family", [
        ([{"preset": "indoor_1"}], "foxh", "alpha_mu_a"),
        ([{"preset": "mg_config1"}], "foxh", "mixture_gamma"),
        ([{"preset": "indoor_1"}, {"preset": "mg_config1"}], "asymptotic",
         "mixed"),
        ([{"preset": "indoor_1"}, {"preset": "mg_config1"}], "foxh",
         "mixed"),
    ], ids=["a_foxh", "mg_foxh", "mixed_asymptotic", "mixed_foxh"])
    def test_inapplicable_method_names_method_and_family(
            self, tmp_path, capsys, branches, method, family):
        scn = write_scn(tmp_path, dict(SCN_MG, branches=branches))
        rc = main(["ber", "--scenario", scn, "--method", method,
                   "--out", str(tmp_path / "x.csv")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("scenario error: ") and err.count("\n") == 1
        assert f"'{method}'" in err and f"{family} branches" in err

    def test_foxh_rejected_for_wrong_family(self, tmp_path, capsys):
        scn = write_scn(tmp_path, SCN_MG)
        rc = main(["ber", "--scenario", scn, "--method", "foxh",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 1
        assert "foxh" in capsys.readouterr().err


class TestOtherSubcommands:
    def test_presets_json(self, tmp_path):
        out = tmp_path / "presets.json"
        assert main(["presets", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert "indoor_1" in data and "mg_config4" in data

    def test_pdf_subcommand(self, tmp_path):
        scn = write_scn(tmp_path, SCN_A)
        out = tmp_path / "pdf.csv"
        assert main(["pdf", "--scenario", scn, "--branch", "0",
                     "--points", "50", "--out", str(out)]) == 0
        rows = out.read_text().splitlines()
        assert rows[0] == "y,pdf"
        assert len(rows) == 51

    @pytest.mark.parametrize("args,flag", [
        (["--branch", "7"], "--branch"),
        (["--branch", "-1"], "--branch"),
        (["--points", "-5"], "--points"),
        (["--points", "10001"], "--points"),
        (["--ymin", "5", "--ymax", "1"], "--ymin"),
        (["--ymax", "inf"], "--ymin"),
        (["--envelope"], "--envelope"),
    ], ids=["branch_too_large", "branch_negative", "points_negative",
            "points_too_many", "range_backwards", "range_infinite",
            "envelope_without_branch"])
    def test_pdf_rejects_bad_arguments(self, tmp_path, capsys, args, flag):
        out = tmp_path / "pdf.csv"
        rc = main(["pdf", "--scenario", write_scn(tmp_path, SCN_A),
                   "--out", str(out)] + args)
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith(f"error: {flag}") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("branches", [
        [{"preset": "indoor_1", "copies": 2}],
        [{"type": "alpha_mu_b", "preset": "indoor_1", "x_mean": x}
         for x in (0.8, 1.25)],
        [{"preset": "mg_config1", "copies": 2}],
    ], ids=["form_a", "form_b", "mg"])
    def test_pdf_matches_the_pointwise_density(self, tmp_path, branches):
        # One array call must give what one call per point gives.
        scn = write_scn(tmp_path, dict(SCN_A, branches=branches))
        out = tmp_path / "pdf.csv"
        assert main(["pdf", "--scenario", scn, "--points", "40",
                     "--out", str(out)]) == 0
        pdf = cli._sum_density(load_scenario(scn)[0])
        rows = [row.split(",") for row in out.read_text().splitlines()[1:]]
        assert [float(v) for _, v in rows] == [float(pdf(float(y)))
                                               for y, _ in rows]

    def test_pdf_of_unequal_form_a_matches_the_convolution_integral(
            self, tmp_path, monkeypatch):
        # f(y) = int_0^y f1(x) f2(y - x) dx by adaptive quadrature.
        calls = []

        def spy(branches, nu, y):
            calls.append(y)
            return sum_power_pdf(branches, nu, y)

        monkeypatch.setattr(cli, "sum_power_pdf", spy)
        scn = write_scn(tmp_path, dict(SCN_A, branches=UNEQUAL_A))
        out = tmp_path / "pdf.csv"
        assert main(["pdf", "--scenario", scn, "--ymin", "0.25", "--ymax",
                     "4", "--points", "4", "--out", str(out)]) == 0
        assert len(calls) == 1
        rows = [row.split(",") for row in out.read_text().splitlines()[1:]]
        b1, b2 = load_scenario(scn)[0].branches

        def conv(y):
            return integrate.quad(
                lambda x: power_pdf(b1, 1.0, x) * power_pdf(b2, 1.0, y - x),
                0.0, y, epsrel=1e-12, epsabs=0.0, limit=500)[0]

        assert [float(v) for _, v in rows] == pytest.approx(
            [conv(float(y)) for y, _ in rows], rel=1e-6, abs=0.0)

    @pytest.mark.parametrize("config", ["mg_config3", "mg_config4"])
    def test_pdf_tabulates_an_mg_pair_on_the_default_grid(self, tmp_path,
                                                           config):
        # Regression: the convolution table once covered only 0.986 and
        # 0.696 of these branches' mass, and pdf exited 1.
        scn = write_scn(tmp_path, dict(SCN_MG, branches=[
            {"preset": config, "copies": 2}]))
        out = tmp_path / "pdf.csv"
        assert main(["pdf", "--scenario", scn, "--out", str(out)]) == 0
        vals = [float(row.split(",")[1])
                for row in out.read_text().splitlines()[1:]]
        assert len(vals) == 200
        assert all(math.isfinite(v) and v >= 0.0 for v in vals)

    def test_fit_subcommand(self, tmp_path):
        # Synthesize an exact curve CSV, then fit it back.
        lines = [CSV_HEADER]
        for u in (10.0, 31.6227766, 100.0, 316.227766, 1000.0):
            ber = 0.4 * u**-2.5
            lines.append(",".join([
                f"{10 * math.log10(u):.17g}", f"{u:.17g}", f"{ber:.17g}",
                "0", "exact", "", ""]))
        csv = tmp_path / "c.csv"
        csv.write_text("\n".join(lines) + "\n")
        out = tmp_path / "fit.json"
        assert main(["fit", "--csv", str(csv), "--theory-kappa2", "2.5",
                     "--window-lo", "10", "--window-hi", "1000",
                     "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["kappa2"] == pytest.approx(2.5, rel=1e-9)
        assert rep["passed"] is True

    def test_fit_failure_exit_code(self, tmp_path, capsys):
        lines = [CSV_HEADER]
        for u in (10.0, 100.0, 1000.0):
            lines.append(",".join([
                f"{10 * math.log10(u):.17g}", f"{u:.17g}",
                f"{0.4 * u ** -1.0:.17g}", "0", "exact", "", ""]))
        csv = tmp_path / "c.csv"
        csv.write_text("\n".join(lines) + "\n")
        rc = main(["fit", "--csv", str(csv), "--theory-kappa2", "3.0"])
        capsys.readouterr()
        assert rc == 1

    @pytest.mark.parametrize("args,flag", [
        (["--theory-kappa2", "nan"], "--theory-kappa2"),
        (["--theory-kappa2", "inf"], "--theory-kappa2"),
        (["--theory-kappa2", "0"], "--theory-kappa2"),
        (["--theory-kappa2", "2.5", "--tol", "nan"], "--tol"),
        (["--tol", "-0.1"], "--tol"),
    ], ids=["kappa2_nan", "kappa2_inf", "kappa2_zero", "tol_nan",
            "tol_negative"])
    def test_fit_rejects_bad_arguments(self, tmp_path, capsys, args, flag):
        lines = [CSV_HEADER] + [",".join([
            f"{10 * math.log10(u):.17g}", f"{u:.17g}",
            f"{0.4 * u ** -2.5:.17g}", "0", "exact", "", ""])
            for u in (10.0, 100.0, 1000.0)]
        csv = tmp_path / "c.csv"
        csv.write_text("\n".join(lines) + "\n")
        out = tmp_path / "fit.json"
        rc = main(["fit", "--csv", str(csv), "--out", str(out)] + args)
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith(f"error: {flag}") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("row", [
        None, "0,abc,0.1,0,exact,,", "-7,-5,0.1,0,exact,,",
        "0,nan,0.1,0,exact,,", "0,1,0.1,inf,exact,,",
    ], ids=["missing_file", "non_numeric", "negative_upsilon", "nan_upsilon",
            "inf_se"])
    def test_fit_rejects_bad_csv(self, tmp_path, capsys, row):
        csv = tmp_path / "c.csv"
        if row is not None:
            csv.write_text(f"{CSV_HEADER}\n10,10,0.01,0,exact,,\n{row}\n")
        out = tmp_path / "fit.json"
        rc = main(["fit", "--csv", str(csv), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith(f"scenario error: {csv}: ")
        assert err.count("\n") == 1 and "Traceback" not in err
        if row is not None:
            assert repr(row) in err
        assert not out.exists()

    def test_missing_scenario_file(self, tmp_path, capsys):
        rc = main(["ber", "--scenario", str(tmp_path / "nope.json"),
                   "--method", "exact", "--out", str(tmp_path / "o.csv")])
        assert rc == 1
        assert "scenario error" in capsys.readouterr().err

    @pytest.mark.parametrize("branch,field", [
        ({"preset": "nope"}, r"branches[0].preset"),
        ({"type": "alpha_mu_a", "alpha": "x", "mu": 0.5}, r"branches[0].alpha"),
        ({"type": "mixture_gamma",
          "components": [[0.5, 4.0, 0.1], [0.5, 2.0]]},
         r"branches[0].components"),
        ({"type": "mixture_gamma", "components": [[1.0, 2.0, math.inf]]},
         r"branches[0].components"),
        ({"type": "mixture_gamma", "components": [[1.0, math.nan, 1.0]]},
         r"branches[0].components"),
    ], ids=["unknown_preset", "non_numeric_field", "short_component",
            "infinite_component", "nan_component"])
    def test_malformed_branch_is_a_scenario_error(self, tmp_path, capsys,
                                                  branch, field):
        scn = write_scn(tmp_path, dict(SCN_A, branches=[branch]))
        rc = main(["ber", "--scenario", scn, "--method", "asymptotic",
                   "--out", str(tmp_path / "o.csv")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("scenario error: ")
        assert field in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("update,field", [
        ({"g": "x"}, "scenario.g"),
        ({"snr_db": {"start": "a", "stop": 10, "step": 5}}, "snr_db.start"),
        ({"link": {"d": "far"}}, "link.d"),
        ({"link": {"temperature": 300.0}}, "link"),
        ({"link": {"normalized": "false"}}, "link.normalized"),
        ({"mc": {"trials": "many"}}, "mc.trials"),
        ({"mc": {"trials": None}}, "mc.trials"),
        ({"mc": {"seed": 1.5}}, "mc.seed"),
        ({"mc": {"method": "foo"}}, "mc.method"),
        ({"mc": {"seed": -1}}, "mc.seed"),
        ({"mc": {"trials": 100}}, "mc.trials"),
        ({"snr_db": {"start": 0, "stop": 1e300, "step": 1e-300}}, "snr_db"),
        ({"snr_db": {"start": 0, "stop": 10000, "step": 1}}, "snr_db"),
        ({"snr_db": {"start": 3000, "stop": 3100, "step": 50}}, "snr_db"),
        ({"snr_db": {"start": -4000, "stop": -3900, "step": 50}}, "snr_db"),
        ({"branches": [{"preset": "indoor_1", "copies": 2.7}]},
         "branches[0].copies"),
        ({"branches": [{"preset": "indoor_1", "copies": 1e9}]},
         "branches[0].copies"),
        ({"branches": [{"preset": "indoor_1", "copies": 5},
                       {"preset": "indoor_1", "copies": 4}]},
         "branches[1].copies"),
        ({"branches": [{"preset": "indoor_1", "type": "mixture_gamma"}]},
         "branches[0].type"),
        ({"branches": [{"preset": "indoor_1", "type": "bogus"}]},
         "branches[0].type"),
        ({"branches": [{"preset": "indoor_1", "type": 5}]},
         "branches[0].type"),
        ({"link": {"normalized": False, "f": 1e-200, "d": 1e-200}}, "link"),
        ({"link": {"normalized": False, "f": 1e-100, "d": 1e-100,
                   "rho": 4}}, "link"),
        ({"link": {"normalized": False, "f": 1e200, "d": 1e200}}, "link"),
        ({"link": {"normalized": False, "pt": 1e300, "gt": 1e300,
                   "gr": 1e300}}, "link"),
    ], ids=["g_not_a_number", "grid_not_a_number", "link_not_a_number",
            "link_noise_setting", "link_normalized_not_a_bool",
            "trials_not_a_number", "trials_null", "seed_not_integral",
            "mc_method_unknown", "seed_negative", "trials_too_few",
            "grid_overflow", "grid_too_long", "upsilon_overflow",
            "upsilon_underflow", "copies_not_integral",
            "copies_too_many", "branches_too_many",
            "preset_type_other_family", "preset_type_unknown",
            "preset_type_not_a_string", "link_spread_divides_by_zero",
            "link_spread_overflows", "link_nu_underflows",
            "link_nu_overflows"])
    def test_malformed_scenario_field_is_a_scenario_error(
            self, tmp_path, capsys, update, field):
        scn = write_scn(tmp_path, dict(SCN_A, **update))
        rc = main(["ber", "--scenario", scn, "--method", "asymptotic",
                   "--out", str(tmp_path / "o.csv")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("scenario error: ")
        assert field + ":" in err
        assert "Traceback" not in err

    def test_mg_at_minus_100_db(self, tmp_path):
        # The theta integrand has a layer about sqrt(Upsilon) wide near
        # theta = 0; the value is adaptive theta quadrature's to 11 digits.
        doc = dict(SCN_MG, branches=[{"preset": "mg_config1", "copies": 2}],
                   snr_db={"start": -100, "stop": -100, "step": 1})
        out = tmp_path / "o.csv"
        assert main(["ber", "--scenario", write_scn(tmp_path, doc),
                     "--method", "mgf", "--out", str(out)]) == 0
        (point,) = read_curve_csv(str(out)).points
        assert point.ber == pytest.approx(0.49862220953, rel=1e-9)

    def test_form_a_exact_on_a_link_budget(self, tmp_path):
        # On the default link (nu ~ 8.4e-6) BER(Upsilon; nu) is the
        # normalised curve at Upsilon nu^2.
        scn = write_scn(tmp_path, dict(
            SCN_A, link={"normalized": False},
            snr_db={"start": 90, "stop": 130, "step": 10}))
        out = tmp_path / "o.csv"
        assert main(["ber", "--scenario", scn, "--method", "exact",
                     "--out", str(out)]) == 0
        nu = load_scenario(scn)[0].nu
        s = IidAlphaMuSum.build(alpha_mu_a_preset("indoor_1"), 1.0, 2)
        curve = read_curve_csv(str(out))
        ref = ber_exact_quadrature(lambda y: iid_sum_power_pdf(s, y),
                                   curve.upsilons * nu**2)
        np.testing.assert_allclose(curve.bers, ref, rtol=1e-9, atol=0.0)

    @pytest.mark.parametrize("method", ["exact", "foxh", "asymptotic"])
    def test_single_form_b_branch(self, tmp_path, method):
        # One branch is its own one-node mixture, on every form-B route.
        doc = dict(SCN_A, branches=[{"type": "alpha_mu_b",
                                     "preset": "indoor_1"}])
        out = tmp_path / "o.csv"
        assert main(["ber", "--scenario", write_scn(tmp_path, doc),
                     "--method", method, "--out", str(out)]) == 0
        assert len(read_curve_csv(str(out)).points) == 3

    @pytest.mark.parametrize("method", ["exact", "foxh", "asymptotic"])
    def test_form_b_sidecar_reports_the_mixture_fit(self, tmp_path, method):
        doc = dict(SCN_A, branches=[
            {"type": "alpha_mu_b", "preset": "indoor_1", "x_mean": x}
            for x in (0.8, 1.25)])
        scn = write_scn(tmp_path, doc)
        for name in ("r1.csv", "r2.csv"):
            assert main(["ber", "--scenario", scn, "--method", method,
                         "--out", str(tmp_path / name)]) == 0
        sidecar = (tmp_path / "r1.csv.json").read_bytes()
        assert sidecar == (tmp_path / "r2.csv.json").read_bytes()
        meta = json.loads(sidecar)["metadata"]
        if method == "asymptotic":
            # The law comes from the branches' leading terms, not the fit.
            assert not [k for k in meta if k.startswith("mixture_")]
        else:
            assert meta["mixture_psi"] == 4
            assert 0.0 <= meta["mixture_residual"] <= 1e-7

    def test_dominant_law_of_many_mg_tuples(self, tmp_path):
        # 6^8 index tuples exceed the full sum's cap; the dominant law keeps
        # one component per branch, beta = 3, so kappa2 = 8 * 3 / 2.
        comps = [[0.1, 3.0, 0.5], [0.2, 4.0, 0.5], [0.2, 5.0, 0.5],
                 [0.2, 6.0, 0.5], [0.2, 7.0, 0.5], [0.1, 8.0, 0.5]]
        doc = dict(SCN_MG, branches=[{"type": "mixture_gamma",
                                      "components": comps, "copies": 8}])
        out = tmp_path / "o.csv"
        assert main(["ber", "--scenario", write_scn(tmp_path, doc),
                     "--method", "asymptotic", "--out", str(out)]) == 0
        rows = [r.split(",") for r in out.read_text().splitlines()[1:]]
        assert {float(r[6]) for r in rows} == {12.0}
        assert all(float(r[2]) > 0.0 for r in rows)

    def test_verify_passes(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert out.count("PASS") == 7


class TestParser:
    def test_one_parser_per_process(self):
        assert cli.build_parser() is cli.build_parser()

    def test_a_patch_after_the_first_call_is_seen(self, tmp_path,
                                                  monkeypatch):
        # Each subcommand looks up the library functions at call time, so
        # the one parser never pins the functions of its first call.
        scn = write_scn(tmp_path, SCN_MG)
        first = _bers(scn, "mgf", tmp_path)
        calls, mgf = [], cli.ber_mg_mgf

        def spy(*args, **kw):
            calls.append(args[-1])
            return mgf(*args, **kw)

        monkeypatch.setattr(cli, "ber_mg_mgf", spy)
        assert _bers(scn, "mgf", tmp_path) == first
        assert len(calls) == 1

    def test_unknown_method_exits_2_with_the_same_usage(self, tmp_path,
                                                        capsys):
        argv = ["ber", "--scenario", write_scn(tmp_path, SCN_MG),
                "--method", "bogus", "--out", str(tmp_path / "o.csv")]
        errs = []
        for _ in range(2):
            with pytest.raises(SystemExit) as info:
                main(argv)
            assert info.value.code == 2
            errs.append(capsys.readouterr().err)
        assert errs[0] == errs[1]
        assert errs[0].startswith("usage: thzdiv ber ")
        assert "{mc,exact,foxh,mgf,asymptotic}" in errs[0]
        assert "invalid choice: 'bogus'" in errs[0]
        assert not (tmp_path / "o.csv").exists()
