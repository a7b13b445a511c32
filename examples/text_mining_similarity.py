"""Text mining: document cosine similarity via D = A @ A^T.

The paper's introductory example: "a term-document matrix (A)_ij that
contains the frequency of terms j for every document i, is multiplied
with its transpose to get the cosine similarity matrix of documents
D = A A^T."  Documents cluster by topic, so the term-document matrix has
dense column groups — exactly the heterogeneous topology AT Matrices
exploit.

Run:  python examples/text_mining_similarity.py
"""

import time

import numpy as np

from repro import COOMatrix, MultiplyOptions, SystemConfig, atmult, build_at_matrix
from repro.formats import coo_to_csr
from repro.kernels import spspsp_gemm


def synthesize_corpus(
    documents: int, vocabulary: int, topics: int, seed: int = 0
) -> COOMatrix:
    """A topical term-document matrix: each topic owns a vocabulary slice.

    Documents draw most terms from their topic's slice plus a tail of
    general vocabulary — giving per-topic dense column bands.
    """
    rng = np.random.default_rng(seed)
    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    vals: list[np.ndarray] = []
    slice_width = vocabulary // topics
    for doc in range(documents):
        topic = rng.integers(0, topics)
        topic_terms = rng.integers(
            topic * slice_width, (topic + 1) * slice_width, size=40
        )
        general_terms = rng.integers(0, vocabulary, size=10)
        terms = np.unique(np.concatenate([topic_terms, general_terms]))
        rows.append(np.full(len(terms), doc, dtype=np.int64))
        cols.append(terms.astype(np.int64))
        vals.append(rng.uniform(0.1, 3.0, size=len(terms)))  # tf-idf-ish
    return COOMatrix(
        documents,
        vocabulary,
        np.concatenate(rows),
        np.concatenate(cols),
        np.concatenate(vals),
    ).sum_duplicates()


def main() -> None:
    documents, vocabulary, topics = 1500, 1200, 6
    term_doc = synthesize_corpus(documents, vocabulary, topics, seed=11)
    print(f"term-document matrix: {documents} docs x {vocabulary} terms, "
          f"nnz={term_doc.nnz} (density {100 * term_doc.density:.2f}%)")

    # Normalize rows so A @ A^T is the cosine similarity.
    norms = np.zeros(documents)
    np.add.at(norms, term_doc.row_ids, term_doc.values**2)
    term_doc.values /= np.sqrt(norms)[term_doc.row_ids]

    config = SystemConfig()
    a = build_at_matrix(term_doc, config)
    a_t = build_at_matrix(term_doc.transpose(), config)
    print(f"A as AT Matrix:  {a}")
    print(f"A^T as AT Matrix: {a_t}")

    start = time.perf_counter()
    similarity, report = atmult(a, a_t, options=MultiplyOptions(config=config))
    elapsed = time.perf_counter() - start
    print(f"\nATMULT D = A A^T: {elapsed * 1e3:.1f} ms, result {similarity}")
    print(f"kernels: {report.kernel_counts}")

    csr = coo_to_csr(term_doc)
    csr_t = coo_to_csr(term_doc.transpose())
    start = time.perf_counter()
    baseline = spspsp_gemm(csr, csr_t)
    baseline_elapsed = time.perf_counter() - start
    print(f"spspsp baseline:  {baseline_elapsed * 1e3:.1f} ms "
          f"-> ATMULT speedup {baseline_elapsed / elapsed:.2f}x")

    # Report the most similar document pair (off-diagonal).
    sim = similarity.to_csr()
    best_score = 0.0
    best_pair = (0, 0)
    for row in range(sim.rows):
        cols, vals = sim.row_slice(row)
        for col, val in zip(cols, vals):
            if col > row and val > best_score:
                best_score = float(val)
                best_pair = (row, int(col))
    print(f"\nmost similar documents: {best_pair} "
          f"(cosine similarity {best_score:.3f})")
    assert np.allclose(similarity.to_dense(), baseline.to_dense(), atol=1e-9)
    print("verified against the sparse baseline")


if __name__ == "__main__":
    main()
