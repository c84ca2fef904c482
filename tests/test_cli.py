import pytest

from fixtures import two_cluster_fixture
from kgembed.cli import build_parser, main, manifest_path, read_manifest
from kgembed.graph_io import write_ntriples
from kgembed.trainer import load_model


@pytest.fixture()
def workspace(tmp_path):
    """Small two-cluster graph on disk plus entity and gold files."""
    graph, nodes_a, nodes_b = two_cluster_fixture(size=4)
    graph_file = tmp_path / "graph.nt"
    write_ntriples(graph.resolved_triples(), graph_file)
    entities = nodes_a + nodes_b
    entities_file = tmp_path / "entities.txt"
    entities_file.write_text("".join(f"{e}\n" for e in entities))
    gold_file = tmp_path / "labels.tsv"
    gold_file.write_text(
        "".join(f"{e}\t{'a' if e in nodes_a else 'b'}\n" for e in entities)
    )
    return tmp_path, graph_file, entities_file, gold_file, entities


def run_walk(tmp_path, graph_file, entities_file, out_name="corpus.txt", extra=()):
    out = tmp_path / out_name
    rc = main(
        [
            "walk",
            "--graph", str(graph_file),
            "--entities", str(entities_file),
            "--walks", "12",
            "--depth", "3",
            "--seed", "7",
            "--out", str(out),
            *extra,
        ]
    )
    return rc, out


class TestDefaults:
    def test_walk_defaults_mirror_standard_setup(self):
        args = build_parser().parse_args(["walk", "--graph", "g.nt"])
        assert args.walks == 500
        assert args.depth == 4
        assert args.mode == "light"

    def test_train_defaults(self):
        args = build_parser().parse_args(["train", "--corpus", "c.txt"])
        assert args.window == 5
        assert args.negatives == 25
        assert args.dim == 100
        assert args.mode == "sg"

    def test_dim_zero_rejected_as_usage_error(self):
        with pytest.raises(SystemExit) as err:
            build_parser().parse_args(["train", "--corpus", "c", "--dim", "0"])
        assert err.value.code == 2

    def test_unknown_task_exit_2_lists_tasks(self, capsys):
        with pytest.raises(SystemExit) as err:
            build_parser().parse_args(["eval", "--model", "m", "--task", "banana"])
        assert err.value.code == 2
        assert "classify" in capsys.readouterr().err

    def test_unknown_walk_mode_rejected(self):
        with pytest.raises(SystemExit) as err:
            build_parser().parse_args(["walk", "--graph", "g.nt", "--mode", "diagonal"])
        assert err.value.code == 2


class TestWalkCommand:
    def test_light_with_all_entities_is_usage_error(self, workspace):
        tmp_path, graph_file, _, _, _ = workspace
        rc = main(["walk", "--graph", str(graph_file), "--entities", "all", "--mode", "light"])
        assert rc == 2
        rc = main(["walk", "--graph", str(graph_file), "--mode", "light"])
        assert rc == 2

    def test_classic_all_subjects(self, workspace, tmp_path):
        _, graph_file, _, _, _ = workspace
        out = tmp_path / "classic.txt"
        rc = main(
            ["walk", "--graph", str(graph_file), "--mode", "classic",
             "--walks", "3", "--depth", "2", "--out", str(out)]
        )
        assert rc == 0
        assert out.exists()

    def test_walk_writes_corpus_and_manifest(self, workspace):
        tmp_path, graph_file, entities_file, _, entities = workspace
        rc, out = run_walk(tmp_path, graph_file, entities_file)
        assert rc == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 12 * len(entities)
        manifest = read_manifest(manifest_path(out))
        assert manifest["mode"] == "light"
        assert manifest["walks"] == "12"
        assert manifest["depth"] == "3"
        assert manifest["graph.0.sha256"]
        assert manifest["entities.path"] == str(entities_file)
        assert "timing.walk_seconds" in manifest

    def test_walk_determinism_byte_identical(self, workspace):
        import gzip

        tmp_path, graph_file, entities_file, _, _ = workspace
        _, out1 = run_walk(tmp_path, graph_file, entities_file, "one.txt.gz")
        _, out2 = run_walk(tmp_path, graph_file, entities_file, "two.txt.gz")
        # the gzip header embeds the basename, so compare content across names
        assert gzip.decompress(out1.read_bytes()) == gzip.decompress(out2.read_bytes())
        first_bytes = out1.read_bytes()
        _, again = run_walk(tmp_path, graph_file, entities_file, "one.txt.gz")
        assert first_bytes == again.read_bytes()

    def test_empty_entity_file_exit_4(self, workspace, tmp_path):
        _, graph_file, _, _, _ = workspace
        empty = tmp_path / "none.txt"
        empty.write_text("# nothing\n")
        rc = main(["walk", "--graph", str(graph_file), "--entities", str(empty)])
        assert rc == 4

    def test_missing_graph_exit_3(self, tmp_path):
        entities = tmp_path / "e.txt"
        entities.write_text("http://ex/a0\n")
        rc = main(["walk", "--graph", str(tmp_path / "nope.nt"), "--entities", str(entities)])
        assert rc == 3

    def test_unknown_extension_needs_format_flag(self, workspace, tmp_path):
        _, graph_file, entities_file, _, _ = workspace
        odd = tmp_path / "graph.rdfdata"
        odd.write_bytes(graph_file.read_bytes())
        rc = main(["walk", "--graph", str(odd), "--entities", str(entities_file)])
        assert rc == 2
        rc = main(
            ["walk", "--graph", str(odd), "--format", "ntriples",
             "--entities", str(entities_file), "--out", str(tmp_path / "c.txt")]
        )
        assert rc == 0


class TestTrainCommand:
    def test_train_writes_model_with_requested_dimension(self, workspace):
        tmp_path, graph_file, entities_file, _, _ = workspace
        _, corpus = run_walk(tmp_path, graph_file, entities_file)
        model_file = tmp_path / "model.txt"
        rc = main(
            ["train", "--corpus", str(corpus), "--dim", "16", "--epochs", "2",
             "--seed", "5", "--out", str(model_file)]
        )
        assert rc == 0
        header = model_file.read_text().splitlines()[0]
        assert header.split()[1] == "16"
        model = load_model(model_file)
        assert model.dimension == 16

    def test_strategy_tag_composed_from_corpus_manifest(self, workspace):
        tmp_path, graph_file, entities_file, _, _ = workspace
        _, corpus = run_walk(tmp_path, graph_file, entities_file)
        model_file = tmp_path / "model.txt"
        main(["train", "--corpus", str(corpus), "--dim", "16", "--epochs", "1", "--out", str(model_file)])
        manifest = read_manifest(manifest_path(model_file))
        assert manifest["strategy"] == "Light_12_3_SG_16"
        assert manifest["learning_rate"] == "0.025"

    def test_epoch_counters_and_phase_timings_in_manifest(self, workspace, capsys):
        tmp_path, graph_file, entities_file, _, _ = workspace
        _, corpus = run_walk(tmp_path, graph_file, entities_file)
        model_file = tmp_path / "model.txt"
        rc = main(["train", "--corpus", str(corpus), "--dim", "8", "--epochs", "2", "--out", str(model_file)])
        assert rc == 0
        err = capsys.readouterr().err
        assert "epoch=1" in err and "epoch=2" in err
        manifest = read_manifest(manifest_path(model_file))
        for n in (1, 2):
            for key in ("loss", "seconds", "pairs_per_second", "row_updates", "rows_clipped"):
                assert f"epoch.{n}.{key}" in manifest
            assert 0 <= int(manifest[f"epoch.{n}.rows_clipped"]) <= int(manifest[f"epoch.{n}.row_updates"])
        assert "epoch.3.loss" not in manifest
        assert manifest["epoch.2.loss"] == manifest["final_loss"]
        for phase in ("read", "train", "save"):
            assert float(manifest[f"timing.{phase}_seconds"]) >= 0

    def test_min_count_filtering_everything_exit_4(self, tmp_path):
        corpus = tmp_path / "c.txt"
        corpus.write_text("a b c\n")
        rc = main(["train", "--corpus", str(corpus), "--min-count", "9", "--out", str(tmp_path / "m.txt")])
        assert rc == 4

    def test_empty_corpus_exit_4(self, tmp_path):
        corpus = tmp_path / "c.txt"
        corpus.write_text("")
        rc = main(["train", "--corpus", str(corpus), "--out", str(tmp_path / "m.txt")])
        assert rc == 4


@pytest.fixture()
def trained(workspace):
    tmp_path, graph_file, entities_file, gold_file, entities = workspace
    _, corpus = run_walk(tmp_path, graph_file, entities_file, "corpus.txt")
    model_file = tmp_path / "model.txt"
    main(
        ["train", "--corpus", str(corpus), "--dim", "16", "--epochs", "2",
         "--seed", "5", "--out", str(model_file)]
    )
    return tmp_path, corpus, model_file, gold_file, entities


class TestEvalCommand:
    def test_classify_csv_output(self, trained, capsys):
        tmp_path, _, model_file, gold_file, _ = trained
        rc = main(
            ["eval", "--model", str(model_file), "--task", "classify",
             "--gold", str(gold_file), "--folds", "4"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0] == "strategy,task,metric,value"
        strategy, task, metric, value = lines[1].split(",")
        assert strategy == "Light_12_3_SG_16"
        assert (task, metric) == ("classify", "accuracy")
        assert len(value.split(".")[1]) == 4

    def test_regress_task(self, trained, capsys):
        tmp_path, _, model_file, _, entities = trained
        gold = tmp_path / "targets.tsv"
        gold.write_text("".join(f"{e}\t{i * 1.5}\n" for i, e in enumerate(entities)))
        rc = main(
            ["eval", "--model", str(model_file), "--task", "regress",
             "--gold", str(gold), "--folds", "4"]
        )
        assert rc == 0
        assert ",regress,rmse," in capsys.readouterr().out

    def test_entity_rel_task(self, trained, capsys):
        tmp_path, _, model_file, _, entities = trained
        gold = tmp_path / "rel.txt"
        gold.write_text(f"{entities[0]}\n" + "".join(f"\t{e}\n" for e in entities[1:5]))
        rc = main(["eval", "--model", str(model_file), "--task", "entity-rel", "--gold", str(gold)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "spearman_mean" in out

    def test_doc_rel_task(self, trained, capsys):
        tmp_path, _, model_file, _, entities = trained
        gold = tmp_path / "docs.tsv"
        gold.write_text(
            f"doc\td1\t{entities[0]} {entities[1]}\n"
            f"doc\td2\t{entities[4]} {entities[5]}\n"
            f"doc\td3\t{entities[2]}\n"
            "pair\td1\td2\t1.0\npair\td1\td3\t3.0\npair\td2\td3\t2.0\n"
        )
        rc = main(["eval", "--model", str(model_file), "--task", "doc-rel", "--gold", str(gold)])
        assert rc == 0
        assert "harmonic_mean" in capsys.readouterr().out

    def test_density_requires_corpus(self, trained):
        _, _, model_file, gold_file, _ = trained
        rc = main(["eval", "--model", str(model_file), "--task", "density", "--gold", str(gold_file)])
        assert rc == 2

    def test_density_uses_corpus_and_entities_from_manifest(self, trained, capsys):
        tmp_path, corpus, model_file, _, _ = trained
        rc = main(["eval", "--model", str(model_file), "--task", "density", "--corpus", str(corpus)])
        assert rc == 0
        out = capsys.readouterr().out
        assert ",density,nodes," in out
        assert ",density,mean_anchor_degree," in out

    def test_gold_task_without_gold_is_usage_error(self, trained):
        _, _, model_file, _, _ = trained
        rc = main(["eval", "--model", str(model_file), "--task", "classify"])
        assert rc == 2

    def test_majority_out_of_vocabulary_exit_4(self, trained, tmp_path):
        _, _, model_file, _, _ = trained
        gold = tmp_path / "oov.tsv"
        gold.write_text("http://ex/g1\tx\nhttp://ex/g2\tx\nhttp://ex/g3\ty\n")
        rc = main(["eval", "--model", str(model_file), "--task", "classify", "--gold", str(gold)])
        assert rc == 4

    def test_eval_out_file_matches_stdout(self, trained, capsys):
        tmp_path, _, model_file, gold_file, _ = trained
        out_file = tmp_path / "results.csv"
        rc = main(
            ["eval", "--model", str(model_file), "--task", "classify",
             "--gold", str(gold_file), "--folds", "4", "--out", str(out_file)]
        )
        assert rc == 0
        assert out_file.read_text() == capsys.readouterr().out


class TestServeCommand:
    def test_missing_model_exit_3(self, tmp_path):
        rc = main(["serve", "--model", str(tmp_path / "nope.txt")])
        assert rc == 3

    def test_malformed_model_exit_4(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("not a model\n")
        rc = main(["serve", "--model", str(bad)])
        assert rc == 4

    def test_port_in_use_exit_3(self, tmp_path):
        import socket

        model_file = tmp_path / "m.txt"
        model_file.write_text("1 2\nhttp://ex/a 1 2\n")
        with socket.socket() as blocker:
            blocker.bind(("127.0.0.1", 0))
            blocker.listen(1)
            port = blocker.getsockname()[1]
            rc = main(["serve", "--model", str(model_file), "--port", str(port)])
        assert rc == 3

    def test_startup_log_health_and_clean_sigterm_shutdown(self, tmp_path):
        import json
        import re
        import signal
        import subprocess
        import sys
        import time
        import urllib.request

        model_file = tmp_path / "m.txt"
        model_file.write_text("2 2\nhttp://ex/a 1 0\nhttp://ex/b 0 1\n")
        proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "kgembed.cli", "serve",
             "--model", str(model_file), "--port", "0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            line = proc.stdout.readline()
            assert "2 vectors" in line and "dimension 2" in line
            port = int(re.search(r":(\d+)$", line.strip()).group(1))
            deadline = time.time() + 10
            body = None
            while time.time() < deadline:
                try:
                    with urllib.request.urlopen(f"http://127.0.0.1:{port}/health", timeout=2) as r:
                        body = json.loads(r.read())
                    break
                except OSError:
                    time.sleep(0.05)
            assert body is not None and body["dimension"] == 2
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=10) == 0
            manifest = read_manifest(f"{model_file}.serve.manifest")
            assert manifest["command"] == "serve"
            assert manifest["dimension"] == "2"
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()


class TestPipelineDeterminism:
    def test_two_runs_identical_outputs(self, workspace):
        tmp_path, graph_file, entities_file, gold_file, _ = workspace
        outputs = []
        for run in ("one", "two"):
            run_dir = tmp_path / run
            run_dir.mkdir()
            corpus = run_dir / "corpus.txt"
            model = run_dir / "model.txt"
            csv_out = run_dir / "results.csv"
            assert main(
                ["walk", "--graph", str(graph_file), "--entities", str(entities_file),
                 "--walks", "8", "--depth", "3", "--seed", "11", "--workers", "1",
                 "--out", str(corpus)]
            ) == 0
            assert main(
                ["train", "--corpus", str(corpus), "--dim", "12", "--epochs", "2",
                 "--seed", "11", "--workers", "1", "--out", str(model)]
            ) == 0
            assert main(
                ["eval", "--model", str(model), "--task", "classify",
                 "--gold", str(gold_file), "--folds", "4", "--out", str(csv_out)]
            ) == 0
            outputs.append((corpus.read_bytes(), model.read_bytes(), csv_out.read_bytes()))
        assert outputs[0] == outputs[1]
