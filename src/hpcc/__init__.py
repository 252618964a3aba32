"""Crossing-minimal acyclic hamiltonian completion of embedded
outerplanar st-digraphs, and the matching two-page book embeddings."""

from .graph import (OuterplanarStDigraph, ParseError, ValidationError,
                    MultipleSources, MultipleSinks, CycleDetected,
                    SideNotAPath, EmbeddingNotPlane, DuplicateEdge,
                    UnknownVertex, NotAPermutation, InternalError,
                    build_graph, graph_from_json, graph_to_json,
                    is_linear_extension)
from .crossings import (CrossingRecord, HpExtendedGraph, NotLinearExtension,
                        SameSideCompletionEdge, build_hp_extended,
                        solution_crossings)
from .rhombus import (Rhombus, RhombusKind, find_strong_rhombus,
                      find_weak_rhombus, is_hamiltonian)
from .decompose import FreeVertex, PolygonTable, StPolygon, decompose
from .polygon import NotAnStPolygon, polygon_costs
from .solver import CompletionSolution, solution_problems, solve
from .book import (BookEmbedding, EdgeDrawing, InvalidSolution, Segment,
                   SpineNotLinearExtension, book_from_json, book_to_json,
                   from_book_embedding, to_book_embedding,
                   validate_book_embedding)
from .oracle import (GeneratorParams, InfeasibleParams, InstanceTooLarge,
                     brute_force_optimal, enumerate_hamiltonian_orders,
                     generate)
from .render import render_svg

__version__ = "0.1.0"

__all__ = [
    "OuterplanarStDigraph",
    "ParseError", "ValidationError", "MultipleSources", "MultipleSinks",
    "CycleDetected", "SideNotAPath", "EmbeddingNotPlane", "DuplicateEdge",
    "UnknownVertex", "NotAPermutation", "InternalError",
    "build_graph", "graph_from_json", "graph_to_json",
    "is_linear_extension",
    "CrossingRecord", "HpExtendedGraph", "NotLinearExtension",
    "SameSideCompletionEdge", "build_hp_extended", "solution_crossings",
    "Rhombus", "RhombusKind",
    "find_strong_rhombus", "find_weak_rhombus", "is_hamiltonian",
    "FreeVertex", "PolygonTable", "StPolygon", "decompose",
    "NotAnStPolygon", "polygon_costs",
    "CompletionSolution", "solution_problems", "solve",
    "BookEmbedding", "EdgeDrawing", "InvalidSolution", "Segment",
    "SpineNotLinearExtension", "book_from_json", "book_to_json",
    "from_book_embedding", "to_book_embedding", "validate_book_embedding",
    "GeneratorParams", "InfeasibleParams", "InstanceTooLarge",
    "brute_force_optimal", "enumerate_hamiltonian_orders", "generate",
    "render_svg",
    "__version__",
]
