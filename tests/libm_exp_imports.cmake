# ctest libm_exp_imports: fails when an object of pt_ml or pt_tuner imports
# libm's exp (or __exp_finite) outside the allow-list below. The fp64 exp of
# the tuning path is common::math::exp (src/common/math.hpp), so its bits do
# not depend on the host's libm. Allowed, until they get their own owned
# functions too:
#   search.cpp.o   the annealing acceptance test
#   robust.cpp.o   Rng::lognormal in the noise-injecting evaluator
#
#   cmake -DNM=<nm> -DML=<libpt_ml.a> -DTUNER=<libpt_tuner.a> \
#         -P tests/libm_exp_imports.cmake
#
# Without an nm it prints "nm not found", which the test treats as a skip.
cmake_minimum_required(VERSION 3.16)

if(NOT NM OR NOT EXISTS "${NM}")
  message("libm_exp_imports: nm not found")
  return()
endif()

set(allowed search.cpp.o robust.cpp.o)
set(offenders "")
foreach(lib IN ITEMS "${ML}" "${TUNER}")
  execute_process(COMMAND "${NM}" -u -A "${lib}"
                  OUTPUT_VARIABLE out RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "libm_exp_imports: ${NM} -u -A ${lib} failed: ${rc}")
  endif()
  string(REPLACE "\n" ";" lines "${out}")
  foreach(line IN LISTS lines)
    # <archive>:<object>: U <symbol>
    if(line MATCHES ":([^:]+):[ \t]*U (exp|__exp_finite)$")
      set(object "${CMAKE_MATCH_1}")
      if(NOT object IN_LIST allowed)
        list(APPEND offenders "${line}")
      endif()
    endif()
  endforeach()
endforeach()

if(offenders)
  list(JOIN offenders "\n  " text)
  message(FATAL_ERROR
    "libm exp imported outside the allow-list (use common::math::exp):\n"
    "  ${text}")
endif()
message("libm_exp_imports: no exp import outside ${allowed}")
