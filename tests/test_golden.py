"""Golden stdout digests of the CLI.

Each case pins the sha256 of one command's stdout, so a library change
that alters any output byte fails here rather than only in a comparison
of two runs within one process.
"""

import hashlib
import json

import pytest

from gorenstein import cli

# the benchmark's census digest, copied from perfbench/check.py
CENSUS_SHA256 = "85ff1781c2c632bed36dc74b24c63be5979d16afb2acd55d88bb320e2b1a98d9"
# verify classification --delta 3 at (5, 8, 4): the harness passes one
# search memo to every decompose call over the census
CLASSIFICATION_SHA256 = "2ac9bf9c17e1ebe3c7eb358bc92f29c24f4fc4d9e5cd4af30a047b4e74277e43"

GRAPHS = {
    "k4": "4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n",
    "diamond": "4 5\n0 1\n1 2\n2 3\n0 3\n0 2\n",
    # C4 with two opposite edges doubled: parallel "del" and "con" edges
    "doubled": "4 6\n0 1\n0 1\n1 2\n2 3\n2 3\n0 3\n",
    # the delta-3 chain glued.glued_chain(3, 7)
    "glued": "7 10\n0 2\n1 3\n0 3\n2 4\n1 4\n1 2\n1 5\n5 6\n0 6\n0 5\n",
    # glued.glued_chain(2, 6) and glued.glued_chain(4, 8)
    "glued2": "6 10\n0 2\n0 3\n1 2\n1 3\n2 3\n0 4\n0 5\n1 4\n1 5\n4 5\n",
    "glued4": "8 12\n1 2\n2 3\n0 3\n1 4\n4 5\n0 1\n0 1\n5 6\n6 7\n0 7\n0 5\n0 5\n",
    # a relabelled glued delta-3 graph from the oracle benchmark stream:
    # the greedy tree over all its edges is the witness of some facets of
    # each kind, and the others take their own greedy runs
    "glued12": "8 12\n2 4\n3 4\n0 7\n5 7\n2 5\n2 7\n2 6\n2 3\n1 5\n1 6\n0 2\n1 4\n",
    # a census graph whose delta-3 search expands six states before the seed
    "deep": "4 8\n0 1\n0 1\n0 2\n0 2\n1 2\n1 3\n1 3\n2 3\n",
}

DIGESTS = {
    ("facets", "k4"): "1f14a293f0c92a7a3dc2a73411cfcea8b2408b980c3c0a75224a469a98fb07a4",
    ("facets", "diamond"): "5d480accd839eafb0e885a9c9695165724a2313a9d8f56eb05fd066b166448e6",
    ("facets", "doubled"): "05b45ae635ddfb0b88f218a9ee3c9245d0b440a273bb71d2514b4ae607309480",
    ("facets", "glued12"): "878f8f89cbeeb29baf4c338145b013b6c14c561843be56cb795adf8887587d1f",
    ("check", "k4"): "0f018903470acdc305b7d055f94b133ea05f7b69f2245e9013beba47573df000",
    ("check", "diamond"): "489f7dab547c1676ca063cadbc11c42513c56cc39a6898feaad86edf12582218",
    ("check", "doubled"): "14263f07dc76a7e6b31aea0b259fa3256a96d8c4076841df460bb3ce27bdc524",
    ("check --oracle", "k4"): "c0f5c23bc3828e290f4eedcb4d54f986475bfbf0fff901703de077c915369257",
    ("check --oracle", "diamond"): "0b6cf21416fff47304715d4484ae8a36c4bf1cf1ea19de5d28656d4ecbcfd8a8",
    ("check --oracle", "doubled"): "14263f07dc76a7e6b31aea0b259fa3256a96d8c4076841df460bb3ce27bdc524",
    ("check --oracle", "glued12"): "db30535619ccafb5598f372bfa51f8444a6c91950a4b84c566ac965e329cca16",
    ("weights --delta 2", "k4"): "818f58348fde3976efe02af6522bece3b88c6deaf446b1385a68d73a574e3142",
    ("weights --delta 2", "diamond"): "177d09f878d653402b39c8dd6c540ce67ea027d873254e898ccedf91a6a46586",
    ("weights --delta 2", "doubled"): "818f58348fde3976efe02af6522bece3b88c6deaf446b1385a68d73a574e3142",
    # at delta 2 both kinds weigh 1; delta 3 tells "del" (1) from "con" (2)
    ("weights --delta 3", "doubled"): "33d0e87d256ac8a043b2da06782178f7de67a0be46421275354d660164629c8f",
    ("decompose --delta 3", "glued"): "619d2402e3ccbab13062ce3d273cccc4d289f4f22394bd7644c20522db6a01e8",
    # K4 is the second seed at delta 2, next to the 2-cycle
    ("decompose --delta 2", "k4"): "07916c8aeaed3b37d509a0ce1334e9f7d2c0238576a3da28e41fce33ca30e8f5",
    ("decompose --delta 2", "glued2"): "76c6a43fb994bc1916391a17b73ca4a1f77622bd9be7c638f2ee96aac198c13d",
    ("decompose --delta 4", "glued4"): "01128c00776dd99ba7abd3c060cb2fc0a494c6f0876e03ab99d55be607989388",
    ("decompose --delta 3", "deep"): "ef82a5d87063d9eefad74b086e754a3a5fdc828152b120a4c6085d0a819cd851",
}

TRIANGLE = {"vertices": 3, "edges": [[0, 1], [1, 2], [0, 2]]}
GLUE_SPECS = {
    # two triangles along a weight-2 edge pair at delta 3: the diamond
    "triangles": {
        "delta": 3,
        "left": TRIANGLE,
        "left_class": [0],
        "right": TRIANGLE,
        "right_class": [0],
    },
    # a triangle with a doubled edge, glued along both copies (weight 2)
    # to a weight-3 edge of C4 at delta 4: one replacement edge
    "doubled4": {
        "delta": 4,
        "left": {"vertices": 3, "edges": [[0, 1], [0, 1], [1, 2], [0, 2]]},
        "left_class": [0, 1],
        "right": {"vertices": 4, "edges": [[0, 1], [1, 2], [2, 3], [0, 3]]},
        "right_class": [1],
    },
}

GLUE_DIGESTS = {
    ("triangles", False, "edgelist"): "70c9a1edcd13d33ad0955c3b3a92a32dc286ee0f418de66df053fce93b491649",
    ("triangles", False, "dot"): "bec492fb4fbeb443f4a39d1eb41fd072fae9612650824701ac496ecfee7ed68c",
    ("triangles", True, "edgelist"): "aae76cd9bf454edb3fb6faa029dafe3bc4537048a7d9fe5c6885cbdb17138afb",
    ("triangles", True, "dot"): "e766a9401528ee5b724385ca4e412e9066c7672b8fbf08d1664ee44dcf40fe39",
    ("doubled4", False, "edgelist"): "2b0d4fa77feb75877b0c7c83ec8b73b28dae6e7f747bd333114662719b4579ce",
    ("doubled4", False, "dot"): "acca4d8e67b0b4248f8c34d5ced353da87d0239a8539ca6154c2cbfcebc0fa4a",
}


def stdout_sha256(capsys, argv) -> str:
    assert cli.run(argv) == 0
    return hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()


def test_census_digest(capsys):
    argv = ["census", "--max-v", "6", "--max-e", "8", "--max-mult", "4"]
    assert stdout_sha256(capsys, argv) == CENSUS_SHA256


def test_classification_digest(capsys):
    argv = ["verify", "classification", "--delta", "3"]
    argv += ["--max-v", "5", "--max-e", "8", "--max-mult", "4"]
    assert stdout_sha256(capsys, argv) == CLASSIFICATION_SHA256


@pytest.mark.parametrize("command, graph", sorted(DIGESTS))
def test_command_digest(capsys, tmp_path, command, graph):
    path = tmp_path / f"{graph}.txt"
    path.write_text(GRAPHS[graph])
    sub, *flags = command.split()
    assert stdout_sha256(capsys, [sub, str(path), *flags]) == DIGESTS[command, graph]


@pytest.mark.parametrize("spec, flip, fmt", sorted(GLUE_DIGESTS))
def test_glue_digest(capsys, tmp_path, spec, flip, fmt):
    path = tmp_path / f"{spec}.json"
    data = GLUE_SPECS[spec] | ({"flip": True} if flip else {})
    path.write_text(json.dumps(data))
    argv = ["glue", str(path), "--format", fmt]
    assert stdout_sha256(capsys, argv) == GLUE_DIGESTS[spec, flip, fmt]
