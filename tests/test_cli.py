import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

import afsp
from afsp.cli import main
from afsp.embedding import save_table
from afsp.llm_client import fingerprint
from afsp.pipeline import PipelineConfig, TranslationPipeline
from afsp.llm_client import MockClient
from helpers import corpus_table, corpus_vocab, synthetic_pairs, write_jsonl


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Run the artifact-producing commands once; reuse across tests."""
    root = tmp_path_factory.mktemp("cli")
    pairs = synthetic_pairs(40, seed=71, unique_src=True)
    write_jsonl(root / "pairs.jsonl", pairs)
    save_table(corpus_table(dim=16), root / "table.bin")

    assert main([
        "ingest", "--input", str(root / "pairs.jsonl"), "--out", str(root / "corpus.bin"),
    ]) == 0
    assert main([
        "index", "--corpus", str(root / "corpus.bin"),
        "--embeddings", str(root / "table.bin"), "--seed", "17",
        "--out", str(root / "index.bin"),
    ]) == 0
    assert main([
        "degrade", "--corpus", str(root / "corpus.bin"),
        "--embeddings", str(root / "table.bin"),
        "--max-ops", "2", "--seed", "7", "--out", str(root / "degraded.jsonl"),
    ]) == 0
    assert main([
        "train-reranker", "--data", str(root / "degraded.jsonl"),
        "--epochs", "15", "--seed", "3", "--feature-dim", str(1 << 14),
        "--out", str(root / "model.bin"),
    ]) == 0
    return root, pairs


def test_ingest_output_summary(workspace, capsys, tmp_path):
    root, pairs = workspace
    assert main([
        "ingest", "--input", str(root / "pairs.jsonl"), "--out", str(tmp_path / "again.bin"),
    ]) == 0
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert summary["pairs"] == 40
    assert summary["src_lang"] == "zh"


def test_retrieve_command(workspace, capsys):
    root, pairs = workspace
    assert main([
        "retrieve", "--index", str(root / "index.bin"),
        "--embeddings", str(root / "table.bin"), "--seed", "17",
        "--query", pairs[4].src_text, "--k", "3", "--alphas", "0.4,0.4,0.2",
    ]) == 0
    results = json.loads(capsys.readouterr().out)
    assert len(results) == 3
    assert results[0]["id"] == pairs[4].id
    assert results[0]["s_rank"] >= results[1]["s_rank"]


def test_prompt_command(workspace, capsys):
    root, pairs = workspace
    assert main([
        "prompt", "--index", str(root / "index.bin"),
        "--embeddings", str(root / "table.bin"), "--seed", "17",
        "--query", pairs[0].src_text, "--k", "3",
    ]) == 0
    prompt = capsys.readouterr().out
    assert prompt.startswith("You are a professional translator")
    assert "3. Chinese text:" in prompt
    assert pairs[0].src_text in prompt


def test_prompt_flags_keep_the_config_files_lang_names(workspace, capsys, tmp_path):
    root, pairs = workspace
    path = tmp_path / "cfg.yaml"
    path.write_text("lang_names: {zh: Mandarin}\n", encoding="utf-8")
    assert main([
        "prompt", "--config", str(path), "--index", str(root / "index.bin"),
        "--embeddings", str(root / "table.bin"), "--seed", "17",
        "--query", pairs[0].src_text, "--k", "1",
    ]) == 0
    prompt = capsys.readouterr().out
    assert "1. Mandarin text:" in prompt
    assert "Chinese" not in prompt


def test_translate_text_with_mock_script(workspace, capsys, tmp_path):
    root, pairs = workspace
    config_path = tmp_path / "cfg.yaml"
    config_path.write_text(
        yaml.safe_dump(
            {
                "paths": {
                    "table": str(root / "table.bin"),
                    "index": str(root / "index.bin"),
                    "reranker": str(root / "model.bin"),
                },
                "seeds": {"projection": 17},
                "retrieval": {"k": 3},
                "generation": {"n_candidates": 2},
            }
        ),
        encoding="utf-8",
    )
    config = PipelineConfig(
        table_path=str(root / "table.bin"),
        index_path=str(root / "index.bin"),
        reranker_path=str(root / "model.bin"),
        projection_seed=17,
        k=3,
    )
    pipeline = TranslationPipeline.from_config(config, client=MockClient({}))
    text = pairs[2].src_text
    prompt = pipeline.build_prompt(text)
    script_path = tmp_path / "script.json"
    script_path.write_text(
        json.dumps({fingerprint(prompt): [pairs[2].tgt_text, pairs[2].src_text]}),
        encoding="utf-8",
    )
    assert main([
        "translate", "--config", str(config_path),
        "--text", text, "--mock-script", str(script_path),
    ]) == 0
    assert capsys.readouterr().out.strip() == pairs[2].tgt_text


def test_translate_unscripted_prompt_is_service_failure(workspace, tmp_path):
    root, pairs = workspace
    script_path = tmp_path / "empty.json"
    script_path.write_text("{}", encoding="utf-8")
    code = main([
        "translate",
        "--index", str(root / "index.bin"),
        "--embeddings", str(root / "table.bin"),
        "--reranker", str(root / "model.bin"),
        "--seed", "17",
        "--text", pairs[0].src_text,
        "--mock-script", str(script_path),
    ])
    assert code == 3


def test_validation_errors_exit_2(tmp_path):
    assert main(["ingest", "--input", str(tmp_path / "missing.jsonl"), "--out", str(tmp_path / "o.bin")]) == 2
    assert main(["retrieve", "--query", "hi"]) == 2  # no index/table anywhere
    bad = tmp_path / "bad.jsonl"
    bad.write_text("not json\n", encoding="utf-8")
    assert main(["ingest", "--input", str(bad), "--out", str(tmp_path / "o.bin")]) == 2


def test_ingest_lone_surrogate_escape_exits_2_naming_the_line(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text(
        '{"src": "你好", "tgt": "hello", "src_lang": "zh", "tgt_lang": "en"}\n'
        '{"src": "再见", "tgt": "\\ud800x", "src_lang": "zh", "tgt_lang": "en"}\n',
        encoding="utf-8",
    )
    assert main(["ingest", "--input", str(bad), "--out", str(tmp_path / "o.bin")]) == 2
    assert "error: line 2: " in capsys.readouterr().err


def test_ingest_non_string_field_exits_2_naming_the_line(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text(
        '{"src": "你好", "tgt": "hello", "src_lang": "zh", "tgt_lang": "en"}\n'
        '{"src": null, "tgt": "bye", "src_lang": "zh", "tgt_lang": "en"}\n',
        encoding="utf-8",
    )
    assert main(["ingest", "--input", str(bad), "--out", str(tmp_path / "o.bin")]) == 2
    assert "error: line 2: src must be a string" in capsys.readouterr().err


def test_degrade_skips_empty_synonym_lists(workspace, tmp_path):
    # every token of the corpus has a line without synonyms, so Replace
    # falls back to the table's nearest neighbour
    root, _ = workspace
    synonyms, out = tmp_path / "synonyms.tsv", tmp_path / "d.jsonl"
    synonyms.write_text("".join(f"{token}\t\t\n" for token in corpus_vocab()), encoding="utf-8")
    assert main([
        "degrade", "--corpus", str(root / "corpus.bin"), "--embeddings", str(root / "table.bin"),
        "--synonyms", str(synonyms), "--max-ops", "2", "--seed", "7", "--out", str(out),
    ]) == 0
    assert out.read_text(encoding="utf-8") == (root / "degraded.jsonl").read_text(encoding="utf-8")


def test_degrade_with_synonyms_and_no_table_replaces_covered_tokens(workspace, tmp_path):
    root, _ = workspace
    synonyms, out = tmp_path / "synonyms.tsv", tmp_path / "d.jsonl"
    covered = corpus_vocab()[:10]
    synonyms.write_text("".join(f"{token}\tSYN{token}\n" for token in covered), encoding="utf-8")
    assert main([
        "degrade", "--corpus", str(root / "corpus.bin"), "--synonyms", str(synonyms),
        "--max-ops", "1", "--seed", "7", "--out", str(out),
    ]) == 0
    replaced = [
        json.loads(line)["text"]
        for line in out.read_text(encoding="utf-8").splitlines()
        if json.loads(line)["ops"] == ["Replace"]
    ]
    assert replaced and all("SYN" in text for text in replaced)


def test_degrade_skips_replace_when_the_synonyms_cover_no_token(workspace, tmp_path):
    root, _ = workspace
    synonyms, out = tmp_path / "synonyms.tsv", tmp_path / "d.jsonl"
    synonyms.write_text("notinthecorpus\tsynonym\n", encoding="utf-8")
    assert main([
        "degrade", "--corpus", str(root / "corpus.bin"), "--synonyms", str(synonyms),
        "--max-ops", "1", "--seed", "7", "--out", str(out),
    ]) == 0
    ops = [json.loads(line)["ops"] for line in out.read_text(encoding="utf-8").splitlines()]
    assert ["Parallel"] in ops and ["Replace"] not in ops


def test_degrade_requires_replace_resources(workspace, tmp_path):
    root, _ = workspace
    assert main([
        "degrade", "--corpus", str(root / "corpus.bin"),
        "--max-ops", "1", "--seed", "1", "--out", str(tmp_path / "d.jsonl"),
    ]) == 2


def test_evaluate_command(workspace, capsys, tmp_path):
    hyp = tmp_path / "hyp.txt"
    ref = tmp_path / "ref.txt"
    hyp.write_text("the cat sat\nhello world\n", encoding="utf-8")
    ref.write_text("the cat sat\nhello there world\n", encoding="utf-8")
    assert main([
        "evaluate", "--hyp", str(hyp), "--ref", str(ref),
        "--metrics", "bleu,chrf,rougeL", "--tokenize", "word",
    ]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["sentences"] == 2
    assert report["tokenize"] == "word"
    assert set(report["corpus"]) == {"bleu", "chrf", "rougeL"}
    assert 0 <= report["corpus"]["rougeL"] <= 100  # reported x100


def test_evaluate_with_no_metrics_exits_2(tmp_path, capsys):
    hyp = tmp_path / "hyp.txt"
    hyp.write_text("one line\n", encoding="utf-8")
    assert main(["evaluate", "--hyp", str(hyp), "--ref", str(hyp), "--metrics", ","]) == 2
    assert "no metrics requested" in capsys.readouterr().err


def test_evaluate_length_mismatch_exit_2(tmp_path):
    hyp = tmp_path / "hyp.txt"
    ref = tmp_path / "ref.txt"
    hyp.write_text("one line\n", encoding="utf-8")
    ref.write_text("one line\nsecond line\n", encoding="utf-8")
    assert main(["evaluate", "--hyp", str(hyp), "--ref", str(ref)]) == 2


def test_train_reranker_reports_progress(workspace, capsys, tmp_path):
    root, _ = workspace
    assert main([
        "train-reranker", "--data", str(root / "degraded.jsonl"),
        "--epochs", "3", "--seed", "3", "--feature-dim", str(1 << 14),
        "--out", str(tmp_path / "m.bin"),
    ]) == 0
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert summary["examples"] > 0
    assert summary["final_mse"] <= summary["initial_mse"]
    assert len(summary["fingerprint"]) == 64


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--epochs", "0", "epochs must be at least 1"),
        ("--feature-dim", "0", "feature_dim must be at least 1"),
        ("--lr", "inf", "learning_rate must be a finite number > 0"),
        # the model file's u32 cannot hold it; refused before any allocation
        ("--feature-dim", "4294967296", "feature_dim must be at most 4294967295"),
    ],
)
def test_train_reranker_bad_limits_exit_2(workspace, capsys, tmp_path, flag, value, message):
    root, _ = workspace
    out = tmp_path / "m.bin"
    assert main(["train-reranker", "--data", str(root / "degraded.jsonl"), flag, value, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_train_reranker_out_of_memory_exits_2(workspace, capsys, tmp_path, monkeypatch):
    # numpy's allocation failure, as a --feature-dim in the billions gives
    def train(*args, **kwargs):
        raise MemoryError("Unable to allocate 22.4 GiB for an array with shape (3000000002,)")

    monkeypatch.setattr("afsp.reranker.train", train)
    root, _ = workspace
    out = tmp_path / "m.bin"
    argv = ["train-reranker", "--data", str(root / "degraded.jsonl"), "--feature-dim", "3000000000"]
    assert main(argv + ["--out", str(out)]) == 2
    assert "error: Unable to allocate 22.4 GiB" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "record, message",
    [
        ('{"text": "a b"', "invalid JSON"),
        ('["a b", 0.5, "p1", []]', "not a JSON object"),
        ('{"score": 0.5, "pair_id": "p1", "ops": []}', "missing field 'text'"),
        ('{"text": "a b", "pair_id": "p1", "ops": []}', "missing field 'score'"),
        ('{"text": "a b", "score": 0.5, "ops": []}', "missing field 'pair_id'"),
        ('{"text": "a b", "score": 0.5, "pair_id": "p1"}', "missing field 'ops'"),
        ('{"text": "a b", "score": "high", "pair_id": "p1", "ops": []}', "score must be a finite number"),
        ('{"text": "a b", "score": NaN, "pair_id": "p1", "ops": []}', "score must be a finite number"),
        ('{"text": 7, "score": 0.5, "pair_id": "p1", "ops": []}', "text must be a string"),
        ('{"text": "a b", "score": 0.5, "pair_id": 5, "ops": []}', "pair_id must be a string"),
        ('{"text": "a b", "score": 0.5, "pair_id": "p1", "ops": "se"}', "ops must be a list"),
        ('{"text": "a b", "score": 0.5, "pair_id": "p1", "ops": [1, null]}', "ops must be a list of strings"),
        ('{"text": "a \\ud800x", "score": 0.5, "pair_id": "p1", "ops": []}', "lone surrogate"),
    ],
    ids=[
        "invalid-json", "list-line", "no-text", "no-score", "no-pair-id", "no-ops", "non-numeric-score",
        "nan-score", "text-not-string", "pair-id-not-string", "ops-not-list", "op-not-string",
        "lone-surrogate",
    ],
)
def test_train_reranker_malformed_example_exit_2(workspace, capsys, tmp_path, record, message):
    root, _ = workspace
    data = tmp_path / "degraded.jsonl"
    lines = (root / "degraded.jsonl").read_text(encoding="utf-8").splitlines()
    data.write_text("\n".join(lines[:2] + [record] + lines[2:]) + "\n", encoding="utf-8")
    assert main(["train-reranker", "--data", str(data), "--out", str(tmp_path / "m.bin")]) == 2
    err = capsys.readouterr().err
    assert "line 3:" in err and message in err


def write_translate_config(root, path):
    path.write_text(
        yaml.safe_dump(
            {
                "paths": {
                    "table": str(root / "table.bin"),
                    "index": str(root / "index.bin"),
                    "reranker": str(root / "model.bin"),
                },
                "seeds": {"projection": 17},
                "generation": {"n_candidates": 2},
            }
        ),
        encoding="utf-8",
    )
    return path


@pytest.mark.parametrize("command", ["retrieve", "prompt", "translate"])
@pytest.mark.parametrize(
    "flag, message", [("--alphas=-1,0,0", "weights must be"), ("--k=-2", "k must be >= 0")]
)
def test_bad_weights_or_k_exit_2_before_loading(workspace, tmp_path, capsys, command, flag, message):
    root, _ = workspace
    argv = [
        command, "--index", str(tmp_path / "missing.bin"),
        "--embeddings", str(root / "table.bin"), flag,
    ]
    argv += ["--text", "你好"] if command == "translate" else ["--query", "你好"]
    assert main(argv) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("alphas", ["1.7e308,1.7e308,1.7e308", "5e-324,0,0"])
def test_fusion_weights_that_overflow_or_underflow_exit_2(workspace, capsys, alphas):
    # the fused scores of such weights are inf, or 0 and 5e-324, so ranking
    # fell back to corpus order
    root, pairs = workspace
    assert main([
        "retrieve", "--index", str(root / "index.bin"),
        "--embeddings", str(root / "table.bin"), "--seed", "17",
        "--query", pairs[4].src_text, "--alphas", alphas,
    ]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "weights must be 0 or in [2**-724, 2**734]" in err


def test_commands_that_send_no_request_do_not_import_requests(workspace, tmp_path):
    root, _ = workspace
    (tmp_path / "hyp.txt").write_text("the cat sat\n", encoding="utf-8")
    commands = [
        [],
        ["ingest", "--input", str(root / "pairs.jsonl"), "--out", str(tmp_path / "corpus.bin")],
        [
            "index", "--corpus", str(root / "corpus.bin"), "--embeddings", str(root / "table.bin"),
            "--seed", "17", "--out", str(tmp_path / "index.bin"),
        ],
        ["evaluate", "--hyp", str(tmp_path / "hyp.txt"), "--ref", str(tmp_path / "hyp.txt")],
    ]
    env = {**os.environ, "PYTHONPATH": str(Path(afsp.__file__).parents[1])}
    for argv in commands:
        script = (
            "import sys\n"
            "import afsp.cli\n"
            f"code = afsp.cli.main({argv!r}) if {argv!r} else 0\n"
            "print(code, 'requests' in sys.modules, 'yaml' in sys.modules)\n"
        )
        run = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
        )
        assert run.stdout.split()[-3:] == ["0", "False", "False"], (argv, run.stdout)


@pytest.mark.parametrize(
    "flag, text", [("--alphas=1,2", "retrieval: {alphas: [1, 2]}\n"), ("--k=-2", "retrieval: {k: -2}\n")]
)
def test_a_bad_setting_gives_one_reason_from_a_flag_and_from_yaml(tmp_path, capsys, flag, text):
    path = tmp_path / "cfg.yaml"
    path.write_text(text, encoding="utf-8")
    assert main(["retrieve", flag, "--query", "你好"]) == 2
    from_flag = capsys.readouterr().err
    assert main(["retrieve", "--config", str(path), "--query", "你好"]) == 2
    assert capsys.readouterr().err == from_flag


def test_translate_without_a_reranker_exits_2_before_any_output(workspace, tmp_path, capsys):
    root, pairs = workspace
    inp, out, audit = tmp_path / "in.txt", tmp_path / "out.txt", tmp_path / "a.jsonl"
    inp.write_text(pairs[0].src_text + "\n", encoding="utf-8")
    script = tmp_path / "script.json"
    script.write_text("{}", encoding="utf-8")
    assert main([
        "translate", "--index", str(root / "index.bin"), "--embeddings", str(root / "table.bin"),
        "--seed", "17", "--n-candidates", "2", "--mock-script", str(script),
        "--input", str(inp), "--out", str(out), "--audit", str(audit),
    ]) == 2
    assert "error: [rerank] no reranker model configured" in capsys.readouterr().err
    assert not out.exists() and not audit.exists()


def test_translate_with_another_seed_exits_2_before_any_output(workspace, tmp_path, capsys):
    root, pairs = workspace
    inp, out, audit = tmp_path / "in.txt", tmp_path / "out.txt", tmp_path / "a.jsonl"
    inp.write_text(pairs[0].src_text + "\n" + pairs[1].src_text + "\n", encoding="utf-8")
    script = tmp_path / "script.json"
    script.write_text("{}", encoding="utf-8")
    assert main([
        "translate", "--index", str(root / "index.bin"), "--embeddings", str(root / "table.bin"),
        "--seed", "18", "--n-candidates", "1", "--mock-script", str(script),
        "--input", str(inp), "--out", str(out), "--audit", str(audit),
    ]) == 2
    assert "error: index was built with a different" in capsys.readouterr().err
    assert not out.exists() and not audit.exists()


@pytest.mark.parametrize("command", ["index", "retrieve"])
def test_negative_projection_seed_exits_2_naming_it(workspace, tmp_path, capsys, command):
    root, _ = workspace
    argv = [command, "--embeddings", str(root / "table.bin"), "--seed", "-1"]
    if command == "index":
        argv += ["--corpus", str(root / "corpus.bin"), "--out", str(tmp_path / "index.bin")]
    else:
        argv += ["--index", str(root / "index.bin"), "--query", "你好"]
    assert main(argv) == 2
    assert "projection seed" in capsys.readouterr().err
    assert not (tmp_path / "index.bin").exists()


@pytest.mark.parametrize("flag", ["--alphas=-1,0,0", "--k=-2"])
def test_bad_weights_or_k_leave_translate_outputs_alone(workspace, tmp_path, flag):
    root, pairs = workspace
    inp, out, audit = tmp_path / "in.txt", tmp_path / "out.txt", tmp_path / "a.jsonl"
    inp.write_text(pairs[0].src_text + "\n", encoding="utf-8")
    out.write_text("earlier output\n", encoding="utf-8")
    audit.write_text("earlier audit\n", encoding="utf-8")
    script = tmp_path / "script.json"
    script.write_text("{}", encoding="utf-8")
    assert main([
        "translate", "--config", str(write_translate_config(root, tmp_path / "cfg.yaml")),
        "--input", str(inp), "--out", str(out), "--audit", str(audit),
        "--mock-script", str(script), flag,
    ]) == 2
    assert out.read_text(encoding="utf-8") == "earlier output\n"
    assert audit.read_text(encoding="utf-8") == "earlier audit\n"


def test_translate_onto_its_own_input_exits_2_and_leaves_it_alone(workspace, tmp_path, capsys):
    root, pairs = workspace
    inp = tmp_path / "in.txt"
    inp.write_text(pairs[0].src_text + "\n", encoding="utf-8")
    script = tmp_path / "script.json"
    script.write_text("{}", encoding="utf-8")
    assert main([
        "translate", "--config", str(write_translate_config(root, tmp_path / "cfg.yaml")),
        "--input", str(inp), "--out", str(inp), "--mock-script", str(script),
    ]) == 2
    assert "must name different files" in capsys.readouterr().err
    assert inp.read_text(encoding="utf-8") == pairs[0].src_text + "\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["ingest", "--input", "@pairs.jsonl", "--out", "@pairs.jsonl"],
        ["index", "--corpus", "@corpus.bin", "--embeddings", "@table.bin", "--out", "@corpus.bin"],
        ["index", "--corpus", "@corpus.bin", "--embeddings", "@table.bin", "--out", "@table.bin"],
        ["degrade", "--corpus", "@corpus.bin", "--out", "@corpus.bin"],
        ["degrade", "--corpus", "@corpus.bin", "--embeddings", "@table.bin", "--out", "@table.bin"],
        ["train-reranker", "--data", "@degraded.jsonl", "--out", "@degraded.jsonl"],
        ["translate", "--config", "@cfg.yaml", "--input", "@in.txt", "--out", "@cfg.yaml"],
        # the index, table and reranker that the config file names
        ["translate", "--config", "@cfg.yaml", "--input", "@in.txt", "--out", "@index.bin"],
        ["translate", "--config", "@cfg.yaml", "--text", "hi", "--audit", "@table.bin"],
        ["translate", "--config", "@cfg.yaml", "--input", "@in.txt", "--out", "@o.txt",
         "--audit", "@model.bin"],
        ["translate", "--config", "@cfg.yaml", "--index", "@index.bin", "--text", "hi",
         "--audit", "@index.bin"],
        ["translate", "--config", "@cfg.yaml", "--text", "hi", "--mock-script", "@script.json",
         "--audit", "@script.json"],
        ["translate", "--config", "@cfg.yaml", "--input", "@in.txt", "--out", "@o.txt",
         "--audit", "@in.txt"],
    ],
)
def test_an_output_naming_an_input_exits_2_and_leaves_it_alone(workspace, tmp_path, capsys, argv):
    root, pairs = workspace
    for name in ("pairs.jsonl", "corpus.bin", "table.bin", "degraded.jsonl", "index.bin", "model.bin"):
        shutil.copy(root / name, tmp_path / name)
    write_translate_config(tmp_path, tmp_path / "cfg.yaml")
    (tmp_path / "in.txt").write_text(pairs[0].src_text + "\n", encoding="utf-8")
    (tmp_path / "script.json").write_text("{}", encoding="utf-8")
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    assert main([str(tmp_path / a[1:]) if a.startswith("@") else a for a in argv]) == 2
    assert "must name different files" in capsys.readouterr().err
    # the input is byte-identical, and nothing else was written
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before


def test_translate_input_not_utf8_exits_2_naming_the_path(workspace, tmp_path, capsys):
    root, pairs = workspace
    inp, out = tmp_path / "bad.txt", tmp_path / "out.txt"
    inp.write_bytes(pairs[0].src_text.encode("utf-8") + b"\n\xff not utf-8\n")
    script = tmp_path / "script.json"
    script.write_text("{}", encoding="utf-8")
    assert main([
        "translate", "--config", str(write_translate_config(root, tmp_path / "cfg.yaml")),
        "--input", str(inp), "--out", str(out), "--mock-script", str(script),
    ]) == 2
    err = capsys.readouterr().err
    assert f"error: {inp}: not UTF-8" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "command", ["ingest", "train-reranker", "evaluate", "config", "synonyms", "mock-script"]
)
def test_text_input_not_utf8_exits_2_naming_the_file(workspace, tmp_path, capsys, command):
    root, _ = workspace
    bad, good, out = tmp_path / "bad.txt", tmp_path / "good.txt", str(tmp_path / "out")
    bad.write_bytes(b"\xff not utf-8\n")
    good.write_text("你好\n", encoding="utf-8")
    config = str(write_translate_config(root, tmp_path / "cfg.yaml"))
    argv = {
        "ingest": ["ingest", "--input", str(bad), "--out", out],
        "train-reranker": ["train-reranker", "--data", str(bad), "--out", out],
        "evaluate": ["evaluate", "--hyp", str(good), "--ref", str(bad)],
        "config": ["retrieve", "--config", str(bad), "--query", "你好"],
        "synonyms": [
            "degrade", "--corpus", str(root / "corpus.bin"), "--synonyms", str(bad), "--out", out,
        ],
        "mock-script": [
            "translate", "--config", config, "--text", "你好", "--mock-script", str(bad),
        ],
    }[command]
    assert main(argv) == 2
    assert f"error: {bad}: not UTF-8" in capsys.readouterr().err


@pytest.mark.parametrize(
    "script",
    ["[1]", '{"fp": "abc"}', '{"fp": ["ok", 1]}', '{"fp": null}', "{not json"],
    ids=["list", "string-candidates", "int-candidate", "null-candidates", "not-json"],
)
def test_malformed_mock_script_exits_2_naming_the_file(workspace, tmp_path, capsys, script):
    root, _ = workspace
    path = tmp_path / "script.json"
    path.write_text(script, encoding="utf-8")
    config = str(write_translate_config(root, tmp_path / "cfg.yaml"))
    argv = ["translate", "--config", config, "--text", "你好", "--mock-script", str(path)]
    assert main(argv) == 2
    assert f"error: {path}: " in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, message",
    [
        ("paths: [table\n", "not valid YAML"),
        ("- paths\n- seeds\n", "mapping of sections"),
        ("paths: 5\n", "section paths"),
        ("retrieval: {alphas: 0.4}\n", "section retrieval"),
        ("seeds: {projecton: 17}\n", "projecton"),
        ("generation: {retries: -1}\n", "section generation: retries must be >= 0"),
        ("generation: {n_candidates: 2.5}\n", "section generation: n_candidates must be an integer"),
        ("generation: {temperature: true}\n", "section generation: temperature must be a finite"),
        ("generation: {endpoint: 5}\n", "section generation: endpoint must be a string"),
        ("lang_names: {zh: 5}\n", "section lang_names: lang_names.zh must be a string"),
    ],
    ids=[
        "yaml-syntax", "top-level-list", "section-not-mapping", "alphas-not-list", "unknown-key",
        "negative-retries", "float-n-candidates", "bool-temperature", "int-endpoint",
        "int-lang-name",
    ],
)
def test_malformed_config_exits_2(tmp_path, capsys, text, message):
    path = tmp_path / "cfg.yaml"
    path.write_text(text, encoding="utf-8")
    assert main(["retrieve", "--config", str(path), "--query", "hi"]) == 2
    assert message in capsys.readouterr().err


def test_text_audit_record_matches_translate_file(workspace, tmp_path, capsys):
    root, pairs = workspace
    config_path = write_translate_config(root, tmp_path / "cfg.yaml")
    config = PipelineConfig(
        table_path=str(root / "table.bin"),
        index_path=str(root / "index.bin"),
        reranker_path=str(root / "model.bin"),
        projection_seed=17,
    )
    pipeline = TranslationPipeline.from_config(config, client=MockClient({}))
    text = pairs[6].src_text
    script = tmp_path / "script.json"
    script.write_text(
        json.dumps({fingerprint(pipeline.build_prompt(text)): [pairs[6].tgt_text, "其他"]}),
        encoding="utf-8",
    )
    common = ["translate", "--config", str(config_path), "--mock-script", str(script)]
    single, batch = tmp_path / "single.jsonl", tmp_path / "batch.jsonl"
    assert main(common + ["--text", text, "--audit", str(single)]) == 0
    inp = tmp_path / "in.txt"
    inp.write_text(text + "\n", encoding="utf-8")
    assert main(common + [
        "--input", str(inp), "--out", str(tmp_path / "out.txt"), "--audit", str(batch),
    ]) == 0
    assert single.read_bytes() == batch.read_bytes()
    assert list(json.loads(single.read_text(encoding="utf-8"))) == ["input", "demos", "candidates", "best"]
